/**
 * @file
 * Counting Bloom filters used by AWG's resume predictor.
 *
 * The paper provisions 512 filters, each with 24 cells and 6 hash
 * functions (~2.1% false-positive probability at their occupancy),
 * one filter per monitored address (selected by address hash). A
 * filter records the *unique* values written to its address; AWG
 * resumes all waiters when more than two unique updates have been
 * observed (barrier-like behaviour) and one waiter otherwise
 * (mutex-like behaviour).
 */

#ifndef IFP_SYNCMON_BLOOM_FILTER_HH
#define IFP_SYNCMON_BLOOM_FILTER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "syncmon/universal_hash.hh"

namespace ifp::syncmon {

/// @name The §V.C Bloom-filter budget
/// @{
constexpr unsigned numBloomFilters = 512;
constexpr unsigned bloomCellsPerFilter = 24;
constexpr unsigned bloomHashesPerFilter = 6;
/// @}

/** One counting Bloom filter. */
class CountingBloomFilter
{
  public:
    CountingBloomFilter(unsigned num_cells = bloomCellsPerFilter,
                        unsigned num_hashes = bloomHashesPerFilter);

    /**
     * Record @p value; returns true when the value was (probably) not
     * seen before, and bumps the unique counter in that case.
     */
    bool observe(std::int64_t value);

    /** Membership test (may report false positives). */
    bool mayContain(std::int64_t value) const;

    /** Number of distinct values observed (modulo false positives). */
    unsigned uniqueCount() const { return uniques; }

    /** Clear all cells and the unique counter. */
    void reset();

    /** Bits of hardware state in this filter (budget accounting). */
    unsigned sizeBits() const { return cells.size(); }

  private:
    unsigned cellFor(std::int64_t value, unsigned hash_idx) const;

    std::vector<std::uint8_t> cells;
    unsigned hashes;
    unsigned uniques = 0;
};

/** The bank of per-address filters, sized to the §V.C budget. */
class BloomFilterBank
{
  public:
    BloomFilterBank();

    /** The filter responsible for @p addr. */
    CountingBloomFilter &filterFor(std::uint64_t addr);
    const CountingBloomFilter &filterFor(std::uint64_t addr) const;

    void resetFor(std::uint64_t addr);

    unsigned numFilters() const { return filters.size(); }

    /** Total hardware bits across the bank. */
    std::uint64_t
    sizeBits() const
    {
        std::uint64_t bits = 0;
        for (const auto &f : filters)
            bits += f.sizeBits();
        return bits;
    }

  private:
    std::vector<CountingBloomFilter> filters;
    UniversalHash selector;
};

} // namespace ifp::syncmon

#endif // IFP_SYNCMON_BLOOM_FILTER_HH
