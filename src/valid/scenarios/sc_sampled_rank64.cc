/**
 * @file
 * Scenario: sampled simulation agreement — the live-point sampler
 * (src/sample) estimating a phased rank-64 workload against the full
 * detailed run, plus the bit-identity guarantees the checkpoint layer
 * promises (DESIGN.md §11).
 *
 * The workload is `total_units` back-to-back rank-64 updates on one
 * machine. Four properties are pinned:
 *
 *  - agreement: the CI-driven sampled estimate matches the full-run
 *    mean (exactly, for this homogeneous workload);
 *  - warm_restore_identical: warm-up + saveCheckpoint + restore into a
 *    fresh machine + remaining units produces a byte-identical stat
 *    dump to the uninterrupted run;
 *  - live_point_stable: the live-point the sampler saves is
 *    byte-identical to one saved by hand at the same unit boundary;
 *  - reuse_identical: re-running the sampler from the cached
 *    live-point (warm-checkpoint reuse) reproduces the estimate.
 *
 * No paper numbers exist for these cells; they are self-checks with
 * exact targets, golden-frozen so any nondeterminism or serialization
 * drift fails tier-1 CI.
 */

#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/cedar.hh"
#include "sample/sample.hh"
#include "valid/scenario.hh"

namespace cedar::valid {

namespace {

void
runSampledRank64(ScenarioContext &ctx)
{
    const unsigned n = 192;
    const unsigned total_units = 6;

    kernels::Rank64Params params;
    params.n = n;
    params.clusters = 2;
    params.version = kernels::Rank64Version::gm_prefetch;

    sample::MachineFactory factory = [&ctx] {
        return std::make_unique<machine::CedarMachine>(ctx.config());
    };
    sample::PhasedWorkload wl;
    wl.total_units = total_units;
    wl.run_unit = [params](machine::CedarMachine &m, unsigned) {
        double flops0 = m.totalFlops();
        Tick tick0 = m.sim().curTick();
        kernels::runRank64(m, params);
        return mflops(m.totalFlops() - flops0,
                      m.sim().curTick() - tick0);
    };

    std::printf("Sampled simulation: %u-unit rank-64 workload "
                "(n = %u, 2 clusters, GM/pref)\n\n",
                total_units, n);

    // Reference: every unit in detail on one machine.
    std::vector<double> unit_rates;
    std::string full_dump;
    {
        auto m = factory();
        for (unsigned u = 0; u < total_units; ++u)
            unit_rates.push_back(wl.run_unit(*m, u));
        full_dump = m->stats().dumpText();
    }
    double full_mean =
        std::accumulate(unit_rates.begin(), unit_rates.end(), 0.0) /
        static_cast<double>(total_units);

    std::printf("full run units (MFLOPS):");
    for (double r : unit_rates)
        std::printf(" %.2f", r);
    std::printf("  mean %.2f\n", full_mean);

    sample::SampleParams sp;
    sp.warmup_units = 2;
    sp.min_windows = 2;
    sp.max_windows = 3;
    sp.target_rel_ci = 0.05;

    // Interrupted twin: warm-up, checkpoint, restore into a fresh
    // machine, run the rest. Must be byte-identical to the reference.
    std::string live_point;
    std::string resumed_dump;
    {
        auto warm = factory();
        for (unsigned u = 0; u < sp.warmup_units; ++u)
            wl.run_unit(*warm, u);
        live_point = warm->saveCheckpoint();

        auto resumed = factory();
        resumed->restoreCheckpoint(live_point);
        for (unsigned u = sp.warmup_units; u < total_units; ++u)
            wl.run_unit(*resumed, u);
        resumed_dump = resumed->stats().dumpText();
    }
    bool restore_identical = full_dump == resumed_dump;
    std::printf("warm restore vs uninterrupted: %s "
                "(%zu-byte stat dump, %zu-byte live-point)\n",
                restore_identical ? "byte-identical" : "DIVERGED",
                full_dump.size(), live_point.size());

    // Sampled estimate: first run warms up and fills the live-point
    // cache; the second reuses it (the sweep-driver path).
    std::string cached;
    sample::SampledRun est = sample::runSampled(factory, wl, sp, &cached);
    bool live_point_stable = cached == live_point;
    sample::SampledRun again =
        sample::runSampled(factory, wl, sp, &cached);
    bool reuse_identical =
        est.mean == again.mean && est.windows == again.windows;

    std::printf("sampled: %.2f MFLOPS over %u window(s) "
                "(rel CI %.4f, detail speedup %.2fx)\n",
                est.mean, est.windows, est.rel_ci, est.speedup_factor);
    std::printf("agreement with full run: %.4f\n", est.mean / full_mean);
    std::printf("live-point stable: %s, warm reuse identical: %s\n",
                live_point_stable ? "yes" : "NO",
                reuse_identical ? "yes" : "NO");

    ctx.metric("n", n);
    ctx.metric("total_units", total_units);
    ctx.metric("windows", est.windows);
    ctx.metric("rel_ci", est.rel_ci);
    ctx.metric("speedup_factor", est.speedup_factor);
    ctx.metric("live_point_bytes",
               static_cast<double>(live_point.size()));
    ctx.cell("full_mflops", full_mean,
             {std::numeric_limits<double>::quiet_NaN(), 0.15, 1e-6,
              "full-detail mean unit rate (reference)"});
    ctx.cell("estimate_mflops", est.mean,
             {std::numeric_limits<double>::quiet_NaN(), 0.15, 1e-6,
              "live-point sampled estimate of the same workload"});
    ctx.cell("agreement", est.mean / full_mean,
             {1.0, 0.10, 1e-6,
              "sampled estimate over full-run mean"});
    ctx.cell("warm_restore_identical", restore_identical ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "restored run's stat dump is byte-identical to the "
              "uninterrupted run (host scalars erased)"});
    ctx.cell("live_point_stable", live_point_stable ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "sampler's saved live-point is byte-identical to a "
              "hand-saved checkpoint at the same boundary"});
    ctx.cell("reuse_identical", reuse_identical ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "re-running from the cached live-point reproduces the "
              "estimate (warm-checkpoint reuse)"});
}

} // namespace

namespace detail {

void
registerSampledRank64()
{
    registerScenario({"sampled_rank64",
                      "Sampled simulation - live-point agreement", true,
                      runSampledRank64});
}

} // namespace detail

} // namespace cedar::valid
