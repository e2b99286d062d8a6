/**
 * @file
 * Carter-Wegman universal hashing [63 in the paper].
 *
 * The SyncMon hashes (monitored address, waiting value) pairs into its
 * condition cache with a universal hash function; the Bloom filters
 * use a family of pairwise-independent hash functions from the same
 * construction.
 */

#ifndef IFP_SYNCMON_UNIVERSAL_HASH_HH
#define IFP_SYNCMON_UNIVERSAL_HASH_HH

#include <bit>
#include <cstdint>

#include "mem/cache_tags.hh"

namespace ifp::syncmon {

/**
 * One member of a universal hash family: h(x) = ((a*x + b) mod p),
 * with p a Mersenne prime (2^61 - 1) and a, b fixed per instance.
 */
class UniversalHash
{
  public:
    explicit UniversalHash(std::uint64_t a = 0x5DEECE66DULL,
                           std::uint64_t b = 0xB)
        : multiplier(a % prime), addend(b % prime)
    {
        if (multiplier == 0)
            multiplier = 1;
    }

    std::uint64_t
    operator()(std::uint64_t x) const
    {
        // 128-bit multiply, then reduce modulo 2^61 - 1.
        unsigned __int128 prod =
            static_cast<unsigned __int128>(multiplier) * (x % prime) +
            addend;
        std::uint64_t lo = static_cast<std::uint64_t>(prod & prime);
        std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
        std::uint64_t r = lo + hi;
        if (r >= prime)
            r -= prime;
        return r;
    }

    static constexpr std::uint64_t prime = (1ULL << 61) - 1;

  private:
    std::uint64_t multiplier;
    std::uint64_t addend;
};

/** Bits of a cacheline offset, which a condition key drops. */
constexpr unsigned lineOffsetBits =
    std::bit_width(mem::cacheLineBytes) - 1;

/**
 * The paper's condition key: the address is shifted left by the log of
 * the number of cache entries (after dropping the cacheline offset)
 * and bitwise ORed with the waiting value, then universally hashed.
 */
inline std::uint64_t
conditionKey(std::uint64_t addr, std::int64_t value, unsigned log2_entries)
{
    std::uint64_t a = (addr >> lineOffsetBits) << log2_entries;
    return a | (static_cast<std::uint64_t>(value) &
                ((1ULL << log2_entries) - 1));
}

} // namespace ifp::syncmon

#endif // IFP_SYNCMON_UNIVERSAL_HASH_HH
