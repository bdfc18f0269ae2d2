/**
 * @file
 * Statistics primitives used throughout the simulator.
 *
 * The Cedar performance hardware collected event traces and histograms
 * of hardware signals; these classes are the software equivalents that
 * simulator components attach to the points the paper instrumented.
 */

#ifndef CEDARSIM_SIM_STATS_HH
#define CEDARSIM_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "logging.hh"

namespace cedar {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { _value += by; }
    void reset() { _value = 0; }
    std::uint64_t value() const { return _value; }

    /** Restore a checkpointed value bit-for-bit. */
    void restore(std::uint64_t value) { _value = value; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Streaming summary of a sampled quantity: count, sum, min, max, mean,
 * and variance (via Welford's algorithm, stable for long runs).
 */
class SampleStat
{
  public:
    void
    sample(double v)
    {
        ++_count;
        _sum += v;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
        double delta = v - _mean;
        _mean += delta / static_cast<double>(_count);
        _m2 += delta * (v - _mean);
    }

    void
    reset()
    {
        _count = 0;
        _sum = 0.0;
        _mean = 0.0;
        _m2 = 0.0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _mean : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    double
    variance() const
    {
        return _count > 1 ? _m2 / static_cast<double>(_count - 1) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }

    /**
     * The raw accumulator words, exactly as Welford's recurrence left
     * them (mean/min/max here are NOT zero-masked for count == 0).
     * Restoring this state reproduces the accumulator bit-for-bit, so
     * a checkpointed run's later samples fold in identically.
     */
    struct Raw
    {
        std::uint64_t count;
        double sum, mean, m2, min, max;
    };

    Raw
    raw() const
    {
        return {_count, _sum, _mean, _m2, _min, _max};
    }

    void
    restore(const Raw &r)
    {
        _count = r.count;
        _sum = r.sum;
        _mean = r.mean;
        _m2 = r.m2;
        _min = r.min;
        _max = r.max;
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _mean = 0.0;
    double _m2 = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/** Harmonic mean of a set of positive rates (paper's suite aggregate). */
double harmonicMean(const std::vector<double> &rates);

/** Arithmetic mean. */
double arithmeticMean(const std::vector<double> &values);

} // namespace cedar

#endif // CEDARSIM_SIM_STATS_HH
