#include "syncmon/bloom_filter.hh"

#include "sim/logging.hh"

namespace ifp::syncmon {

namespace {

/** Fixed, distinct hash-family members for the filter hashes. */
const UniversalHash bloomHashes[] = {
    UniversalHash(0x9E3779B97F4A7C15ULL, 0x7F4A7C15ULL),
    UniversalHash(0xBF58476D1CE4E5B9ULL, 0x1CE4E5B9ULL),
    UniversalHash(0x94D049BB133111EBULL, 0x133111EBULL),
    UniversalHash(0xD6E8FEB86659FD93ULL, 0x6659FD93ULL),
    UniversalHash(0xA0761D6478BD642FULL, 0x78BD642FULL),
    UniversalHash(0xE7037ED1A0B428DBULL, 0xA0B428DBULL),
    UniversalHash(0x8EBC6AF09C88C6E3ULL, 0x9C88C6E3ULL),
    UniversalHash(0x589965CC75374CC3ULL, 0x75374CC3ULL),
};

} // anonymous namespace

CountingBloomFilter::CountingBloomFilter(unsigned num_cells,
                                         unsigned num_hashes)
    : cells(num_cells, 0), hashes(num_hashes)
{
    ifp_assert(num_cells > 0, "bloom filter needs cells");
    ifp_assert(num_hashes > 0 &&
               num_hashes <= std::size(bloomHashes),
               "unsupported number of bloom hashes (%u)", num_hashes);
}

unsigned
CountingBloomFilter::cellFor(std::int64_t value, unsigned hash_idx) const
{
    return static_cast<unsigned>(
        bloomHashes[hash_idx](static_cast<std::uint64_t>(value)) %
        cells.size());
}

bool
CountingBloomFilter::mayContain(std::int64_t value) const
{
    for (unsigned h = 0; h < hashes; ++h) {
        if (cells[cellFor(value, h)] == 0)
            return false;
    }
    return true;
}

bool
CountingBloomFilter::observe(std::int64_t value)
{
    bool fresh = !mayContain(value);
    for (unsigned h = 0; h < hashes; ++h) {
        std::uint8_t &cell = cells[cellFor(value, h)];
        if (cell < 0xFF)
            ++cell;
    }
    if (fresh)
        ++uniques;
    return fresh;
}

void
CountingBloomFilter::reset()
{
    std::fill(cells.begin(), cells.end(), 0);
    uniques = 0;
}

BloomFilterBank::BloomFilterBank()
    : filters(numBloomFilters),
      selector(0xFF51AFD7ED558CCDULL, 0xC4CEB9FE1A85EC53ULL)
{
}

CountingBloomFilter &
BloomFilterBank::filterFor(std::uint64_t addr)
{
    return filters[selector(addr) % filters.size()];
}

const CountingBloomFilter &
BloomFilterBank::filterFor(std::uint64_t addr) const
{
    return filters[selector(addr) % filters.size()];
}

void
BloomFilterBank::resetFor(std::uint64_t addr)
{
    filterFor(addr).reset();
}

} // namespace ifp::syncmon
