/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * A small xorshift-based generator with explicit seeding is used instead
 * of std::mt19937 so that every experiment is reproducible bit-for-bit
 * across standard-library implementations.
 *
 * This header is the single home of every seed-mixing primitive in the
 * simulator: the SplitMix64 finalizer, per-run seed derivation (used by
 * the sweep executor), and the xoshiro256** stream type. RNG state is
 * therefore snapshotable in exactly one place — a checkpoint serializes
 * Rng::state() words and nothing else.
 */

#ifndef CEDARSIM_SIM_RANDOM_HH
#define CEDARSIM_SIM_RANDOM_HH

#include <array>
#include <cstdint>

#include "logging.hh"

namespace cedar {

/**
 * The SplitMix64 finalizer: a bijective avalanche over 64 bits. Every
 * seed expansion and stream derivation in the simulator funnels through
 * this one function.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/**
 * Derive stream @p index from @p master. Pure function of its
 * arguments: stream 5 is the same whether it is derived first, last,
 * or concurrently, and neighbouring indices get statistically
 * independent streams. Traffic rounds and any component wanting a
 * private lane off a master seed use this.
 */
constexpr std::uint64_t
deriveSeed(std::uint64_t master, std::uint64_t index)
{
    return splitmix64(master + 0x9E3779B97F4A7C15ULL * (index + 1));
}

/** xoshiro256** generator; deterministic across platforms. */
class Rng
{
  public:
    /** The full generator state: four 64-bit lanes. */
    using State = std::array<std::uint64_t, 4>;

    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL)
    {
        // SplitMix64 expansion of the seed into four lanes.
        std::uint64_t x = seed;
        for (auto &lane : _s) {
            x += 0x9E3779B97F4A7C15ULL;
            lane = splitmix64(x);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        auto rotl = [](std::uint64_t v, int k) {
            return (v << k) | (v >> (64 - k));
        };
        std::uint64_t result = rotl(_s[1] * 5, 7) * 9;
        std::uint64_t t = _s[1] << 17;
        _s[2] ^= _s[0];
        _s[3] ^= _s[1];
        _s[1] ^= _s[2];
        _s[0] ^= _s[3];
        _s[2] ^= t;
        _s[3] = rotl(_s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        sim_assert(bound > 0, "Rng::below requires a positive bound");
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    range(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Snapshot of the generator state (for checkpoints). */
    State
    state() const
    {
        return {_s[0], _s[1], _s[2], _s[3]};
    }

    /** Restore a previously snapshotted state bit-for-bit. */
    void
    setState(const State &s)
    {
        _s[0] = s[0];
        _s[1] = s[1];
        _s[2] = s[2];
        _s[3] = s[3];
    }

  private:
    std::uint64_t _s[4];
};

} // namespace cedar

#endif // CEDARSIM_SIM_RANDOM_HH
