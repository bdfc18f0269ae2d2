/**
 * @file
 * Scenario: the judging-parallelism methodology re-run past the paper.
 * Banded matvec speedups at 8/16/64/256 clusters (64 to 2048 CEs),
 * three problem sizes per scale, against a measured one-CE serial
 * baseline. Section 4.3's bands are auto-derived from P at every
 * scale — high is P/2, acceptable is P/(2 log2 P) — and the per-scale
 * size stability St must satisfy the paper's 0.5 <= St <= 1 criterion.
 * The honest result, frozen as exact property cells: every scale
 * lands in the intermediate band (network latency grows with log P
 * while the serial CE does not), and stays there stably.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/cedar.hh"
#include "exec/parallel.hh"
#include "valid/scenario.hh"

namespace cedar::valid {

namespace {

constexpr unsigned scales[] = {8u, 16u, 64u, 256u};
constexpr unsigned rows_per_ce[] = {128u, 256u, 512u};
constexpr unsigned band_width = 5;
constexpr unsigned strip = 32;

/** Flops per tick of a banded matvec on @p ces CEs of a scaled
 *  machine (clusters == 0 runs the one-CE serial baseline). */
double
bandedRate(const ScenarioContext &ctx, unsigned clusters, unsigned ces,
           unsigned n)
{
    auto cfg = machine::CedarConfig::scaled(clusters ? clusters : 1);
    ctx.tune(cfg);
    machine::CedarMachine machine(cfg);
    kernels::BandedParams params;
    params.n = n;
    params.bandwidth = band_width;
    params.ces = ces;
    params.strip = strip;
    auto res = kernels::runBanded(machine, params);
    return res.flops / static_cast<double>(res.end - res.start);
}

void
runScaledParallelism(ScenarioContext &ctx)
{
    std::printf("Judging parallelism past the paper: banded matvec at "
                "8-256 clusters\n");
    std::printf("(bands auto-derived per scale: high >= P/2, "
                "acceptable >= P/(2 log2 P))\n\n");

    const double nan = std::numeric_limits<double>::quiet_NaN();

    // One serial anchor plus 4 scales x 3 sizes, all independent runs.
    std::vector<std::function<double()>> tasks;
    tasks.push_back([&ctx] {
        return bandedRate(ctx, 0, 1, 4096);
    });
    for (unsigned clusters : scales) {
        for (unsigned rpc : rows_per_ce) {
            tasks.push_back([&ctx, clusters, rpc] {
                unsigned ces = clusters * 8;
                return bandedRate(ctx, clusters, ces, ces * rpc);
            });
        }
    }
    auto rates = exec::parallelMap<double>(ctx.jobs(), std::move(tasks));
    const double serial_rate = rates[0];

    core::TableWriter table({"clusters", "CEs", "rows/CE", "rate",
                             "speedup", "band"});
    bool all_acceptable = true, any_high = false, all_stable = true;
    std::size_t next = 1;
    for (unsigned clusters : scales) {
        unsigned ces = clusters * 8;
        std::string cell = "c";
        cell += std::to_string(clusters);
        std::vector<double> speedups;
        for (unsigned rpc : rows_per_ce) {
            double rate = rates[next++];
            double spdup = rate / serial_rate;
            speedups.push_back(spdup);
            auto band = method::classify(spdup, ces);
            all_acceptable =
                all_acceptable && band != method::Band::unacceptable;
            any_high = any_high || band == method::Band::high;
            table.row({core::fmt(clusters, 0), core::fmt(ces, 0),
                       core::fmt(rpc, 0), core::fmt(rate, 3),
                       core::fmt(spdup, 1), method::bandName(band)});
            ctx.cell(cell + "_speedup_r" + std::to_string(rpc), spdup,
                     {nan, 0.0, 1e-6,
                      "banded speedup at " + std::to_string(ces) +
                          " CEs (acceptable >= " +
                          core::fmt(method::acceptableThreshold(ces),
                                    1) +
                          ", high >= " +
                          core::fmt(method::highThreshold(ces), 1) +
                          ")"});
        }
        double st = method::stability(speedups, 0);
        double st1 = method::stability(speedups, 1);
        all_stable = all_stable && st1 >= 0.5 && st1 <= 1.0;
        ctx.cell(cell + "_st", st,
                 {nan, 0.0, 1e-6,
                  "size stability St over three problem sizes at " +
                      std::to_string(ces) + " CEs"});
        ctx.cell(cell + "_st1", st1,
                 {nan, 0.0, 1e-6,
                  "St with one excluded size (the paper's exception "
                  "mechanism) at " +
                      std::to_string(ces) + " CEs"});
    }
    table.print();

    ctx.cell("serial_rate", serial_rate,
             {nan, 0.0, 1e-6,
              "one-CE banded matvec baseline (flops/tick)"});
    ctx.cell("all_scales_acceptable", all_acceptable ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "every (P, N) observation clears P/(2 log2 P)"});
    ctx.cell("high_band_reached", any_high ? 1.0 : 0.0,
             {0.0, 0.0, 0.0,
              "honest reading: log-depth network latency keeps the "
              "scaled machines out of the P/2 band"});
    ctx.cell("all_scales_stable", all_stable ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "St(e=1) in [0.5, 1] at every scale (the paper's "
              "criterion, with its small-exception allowance)"});
    // The exceptional size is itself a finding worth freezing: at 512
    // CEs the 512-rows/CE problem puts every CE's band reads on a
    // power-of-two stride that resonates with the power-of-two module
    // interleave (gcd of the double-word row stride and the module
    // count = 256-way conflicts), collapsing the speedup. The paper's
    // module-conflict discussion predicts exactly this failure mode.
    double resonant = rates[1 + 2 * 3 + 2] / serial_rate; // c64, r512
    double smooth = rates[1 + 2 * 3 + 0] / serial_rate;   // c64, r128
    ctx.cell("c64_pow2_resonance_observed",
             resonant < 0.75 * smooth ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "power-of-two stride/interleave resonance at 512 CEs "
              "(the excluded exception)"});

    std::printf(
        "\nreading: the architecture scales with *intermediate* "
        "performance through 2048\nCEs — speedups track P/(2 log2 P) "
        "with stable St at every scale once the one\npower-of-two "
        "stride/interleave resonance (512 rows/CE at 512 CEs) is "
        "excluded,\nbut the widening gap to P/2 is the log-depth "
        "network tax the paper's Fundamental\nPrinciple predicts for "
        "machines grown without a faster clock.\n");
}

} // namespace

namespace detail {

void
registerScaledParallelism()
{
    registerScenario({"scaled_parallelism",
                      "Judging parallelism at 8-256 clusters", false,
                      runScaledParallelism});
}

} // namespace detail

} // namespace cedar::valid
