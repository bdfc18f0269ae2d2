/**
 * @file
 * Methodology tests: performance bands, the stability metric under
 * optimal exclusion, the PPT evaluators, and the calibrated reference
 * machines' paper-stated aggregates.
 */

#include <gtest/gtest.h>

#include "method/machines.hh"
#include "method/metrics.hh"
#include "method/ppt.hh"
#include "method/stability.hh"

using namespace cedar;
using namespace cedar::method;

// ---------------------------------------------------------------------
// Metrics and bands
// ---------------------------------------------------------------------

TEST(Metrics, SpeedupAndEfficiency)
{
    EXPECT_DOUBLE_EQ(speedup(100.0, 25.0), 4.0);
    EXPECT_DOUBLE_EQ(efficiency(16.0, 32), 0.5);
}

TEST(Metrics, ThresholdsMatchThePaper)
{
    // P/2 and P / (2 log2 P), for P >= 8.
    EXPECT_DOUBLE_EQ(highThreshold(32), 16.0);
    EXPECT_DOUBLE_EQ(acceptableThreshold(32), 32.0 / 10.0);
    EXPECT_DOUBLE_EQ(highThreshold(8), 4.0);
    EXPECT_NEAR(acceptableThreshold(8), 8.0 / 6.0, 1e-12);
}

struct BandCase
{
    double spdup;
    unsigned p;
    Band expected;
};

/** Readable, stable test names instead of the struct's raw bytes. */
void
PrintTo(const BandCase &c, std::ostream *os)
{
    *os << "speedup " << c.spdup << " of " << c.p << " -> "
        << bandName(c.expected);
}

class BandClassification : public ::testing::TestWithParam<BandCase>
{
};

TEST_P(BandClassification, Classify)
{
    auto c = GetParam();
    EXPECT_EQ(classify(c.spdup, c.p), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BandClassification,
    ::testing::Values(BandCase{16.0, 32, Band::high},
                      BandCase{15.9, 32, Band::intermediate},
                      BandCase{3.2, 32, Band::intermediate},
                      BandCase{3.1, 32, Band::unacceptable},
                      BandCase{4.0, 8, Band::high},
                      BandCase{1.34, 8, Band::intermediate},
                      BandCase{1.3, 8, Band::unacceptable},
                      BandCase{100.0, 32, Band::high},
                      BandCase{0.1, 8, Band::unacceptable}));

TEST(Metrics, BandCountTally)
{
    BandCount count;
    count.add(Band::high);
    count.add(Band::intermediate);
    count.add(Band::intermediate);
    count.add(Band::unacceptable);
    EXPECT_EQ(count.high, 1u);
    EXPECT_EQ(count.intermediate, 2u);
    EXPECT_EQ(count.unacceptable, 1u);
    EXPECT_EQ(count.total(), 4u);
}

// ---------------------------------------------------------------------
// Stability
// ---------------------------------------------------------------------

TEST(Stability, NoExclusionsIsMinOverMax)
{
    EXPECT_DOUBLE_EQ(stability({1.0, 2.0, 10.0}, 0), 0.1);
    EXPECT_DOUBLE_EQ(instability({1.0, 2.0, 10.0}, 0), 10.0);
}

TEST(Stability, OptimalExclusionPicksTheBestEnd)
{
    // Dropping the single outlier at the top is optimal here.
    std::vector<double> rates{4.0, 5.0, 6.0, 40.0};
    EXPECT_DOUBLE_EQ(stability(rates, 1), 4.0 / 6.0);
    // And at the bottom here.
    std::vector<double> rates2{0.1, 5.0, 6.0, 8.0};
    EXPECT_DOUBLE_EQ(stability(rates2, 1), 5.0 / 8.0);
}

TEST(Stability, SplitExclusionBeatsOneSided)
{
    // One outlier at each end: the optimum drops one from each side.
    std::vector<double> rates{0.1, 3.0, 4.0, 5.0, 100.0};
    EXPECT_DOUBLE_EQ(stability(rates, 2), 3.0 / 5.0);
}

TEST(Stability, MonotoneInExclusions)
{
    std::vector<double> rates{0.3, 1.0, 2.0, 5.0, 9.0, 20.0, 60.0};
    for (unsigned e = 1; e < rates.size() - 1; ++e)
        EXPECT_GE(stability(rates, e), stability(rates, e - 1));
}

TEST(Stability, BoundsAndErrors)
{
    EXPECT_DOUBLE_EQ(stability({5.0, 5.0, 5.0}, 0), 1.0);
    EXPECT_THROW(stability({}, 0), std::logic_error);
    EXPECT_THROW(stability({1.0, 2.0}, 2), std::logic_error);
}

TEST(Stability, ExclusionsForStabilityFindsMinimalE)
{
    std::vector<double> rates{0.1, 5.0, 6.0, 7.0, 100.0};
    // In(.,0) = 1000, In(.,1) = 20 or 70, In(.,2) = 7/5 = 1.4.
    EXPECT_EQ(exclusionsForStability(rates, 6.0), 2u);
    EXPECT_EQ(exclusionsForStability(rates, 1000.0), 0u);
}

/** Property sweep: stability is scale-invariant. */
class StabilityScale : public ::testing::TestWithParam<double>
{
};

TEST_P(StabilityScale, ScaleInvariant)
{
    std::vector<double> rates{0.5, 2.0, 3.0, 9.0, 31.0};
    std::vector<double> scaled;
    for (double r : rates)
        scaled.push_back(r * GetParam());
    for (unsigned e = 0; e < 3; ++e)
        EXPECT_NEAR(stability(rates, e), stability(scaled, e), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Scales, StabilityScale,
                         ::testing::Values(0.01, 0.5, 3.0, 1000.0));

// ---------------------------------------------------------------------
// PPT evaluators
// ---------------------------------------------------------------------

TEST(Ppt, Ppt1CountsBandsAndPasses)
{
    auto r = evaluatePpt1({20.0, 10.0, 5.0, 1.0}, 32);
    EXPECT_EQ(r.bands.high, 1u);
    EXPECT_EQ(r.bands.intermediate, 2u);
    EXPECT_EQ(r.bands.unacceptable, 1u);
    EXPECT_TRUE(r.passed);
    auto bad = evaluatePpt1({1.0, 1.0, 20.0}, 32);
    EXPECT_FALSE(bad.passed);
}

TEST(Ppt, Ppt2UsesWorkstationThreshold)
{
    // One terrible and one stellar outlier around a tight middle.
    auto r = evaluatePpt2({0.1, 4.0, 5.0, 6.0, 7.0, 300.0});
    EXPECT_EQ(r.exceptions_needed, 2u);
    EXPECT_LE(r.instability_at_e, workstation_instability);
    EXPECT_TRUE(r.passed);
    auto strict = evaluatePpt2({0.1, 4.0, 5.0, 6.0, 7.0, 300.0}, 1);
    EXPECT_FALSE(strict.passed);
}

TEST(Ppt, Ppt4ScalabilityClassification)
{
    std::vector<ScalePoint> points{
        {32, 16384, 18.0}, {32, 65536, 20.0}, {32, 172032, 22.0},
        {16, 16384, 9.0},  {8, 16384, 5.0},
    };
    auto r = evaluatePpt4(points);
    EXPECT_TRUE(r.scalable);
    EXPECT_TRUE(r.scalable_high);
    EXPECT_DOUBLE_EQ(r.high_band_threshold_n, 16384.0);
    EXPECT_NEAR(r.size_stability, 18.0 / 22.0, 1e-12);
    EXPECT_NEAR(r.high_stability, 18.0 / 22.0, 1e-12);
    EXPECT_DOUBLE_EQ(r.intermediate_stability, 1.0);
}

TEST(Ppt, Ppt4FlagsUnacceptableObservations)
{
    std::vector<ScalePoint> points{{32, 1024, 2.0}, {32, 2048, 20.0}};
    auto r = evaluatePpt4(points);
    EXPECT_FALSE(r.scalable);
}

// ---------------------------------------------------------------------
// Reference machines: paper-stated aggregates
// ---------------------------------------------------------------------

TEST(ReferenceMachines, ThirteenCodesInCanonicalOrder)
{
    EXPECT_EQ(perfectCodeNames().size(), 13u);
    EXPECT_EQ(ympRef().codes.size(), 13u);
    EXPECT_EQ(cray1Ref().codes.size(), 13u);
    for (std::size_t i = 0; i < 13; ++i) {
        EXPECT_EQ(ympRef().codes[i].code, perfectCodeNames()[i]);
        EXPECT_EQ(cray1Ref().codes[i].code, perfectCodeNames()[i]);
    }
}

TEST(ReferenceMachines, YmpInstabilityTripleMatchesTable5)
{
    auto rates = ympRef().autoRates();
    EXPECT_NEAR(instability(rates, 0), 75.3, 0.2);
    EXPECT_NEAR(instability(rates, 2), 29.0, 0.2);
    EXPECT_NEAR(instability(rates, 6), 5.3, 0.15);
}

TEST(ReferenceMachines, Cray1InstabilityMatchesTable5)
{
    auto rates = cray1Ref().autoRates();
    EXPECT_NEAR(instability(rates, 2), 10.9, 0.15);
    EXPECT_NEAR(instability(rates, 6), 4.6, 0.15);
}

TEST(ReferenceMachines, YmpBaselineBandsMatchTable6)
{
    auto r = evaluatePpt3(ympRef().autoSpeedups(), 8);
    EXPECT_EQ(r.bands.high, 0u);
    EXPECT_EQ(r.bands.intermediate, 6u);
    EXPECT_EQ(r.bands.unacceptable, 7u);
}

TEST(ReferenceMachines, YmpManualBandsMatchFigure3)
{
    BandCount bands;
    for (double eff : ympRef().manualEfficiencies())
        bands.add(classifyEfficiency(eff, 8));
    EXPECT_EQ(bands.high, 6u);
    EXPECT_EQ(bands.intermediate, 6u);
    EXPECT_EQ(bands.unacceptable, 1u);
}

// ---------------------------------------------------------------------
// CM-5 model
// ---------------------------------------------------------------------

TEST(Cm5, PublishedRateRangesAt32Nodes)
{
    Cm5Model cm5;
    EXPECT_NEAR(cm5.mflops(3, 16384, 32), 28.0, 1.5);
    EXPECT_NEAR(cm5.mflops(3, 262144, 32), 32.0, 1.5);
    EXPECT_NEAR(cm5.mflops(11, 16384, 32), 58.0, 1.5);
    EXPECT_NEAR(cm5.mflops(11, 262144, 32), 67.0, 1.5);
}

TEST(Cm5, NeverReachesTheHighBand)
{
    Cm5Model cm5;
    for (unsigned bw : {3u, 11u})
        for (unsigned p : {32u, 256u, 512u})
            for (double n : {16384.0, 262144.0})
                EXPECT_NE(cm5.band(bw, n, p), Band::high);
}

TEST(Cm5, IntermediateInThePublishedRanges)
{
    Cm5Model cm5;
    EXPECT_EQ(cm5.band(11, 65536, 32), Band::intermediate);
    EXPECT_EQ(cm5.band(3, 65536, 32), Band::intermediate);
}

TEST(Cm5, RejectsUnpublishedBandwidths)
{
    Cm5Model cm5;
    EXPECT_THROW(cm5.mflops(7, 16384, 32), std::logic_error);
}
