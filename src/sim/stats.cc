/**
 * @file
 * Implementation of the mean helpers.
 */

#include "stats.hh"

namespace cedar {

double
harmonicMean(const std::vector<double> &rates)
{
    if (rates.empty())
        return 0.0;
    double denom = 0.0;
    for (double r : rates) {
        sim_assert(r > 0.0, "harmonic mean requires positive rates, got ", r);
        denom += 1.0 / r;
    }
    return static_cast<double>(rates.size()) / denom;
}

double
arithmeticMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace cedar
