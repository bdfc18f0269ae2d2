/**
 * @file
 * Scenario: Section 4.3 PPT4 — CG scalability on Cedar against the
 * CM-5 banded matrix-vector model. Paper findings frozen as cells:
 * the 32-CE MFLOPS range inside the paper's 34..48 band, the high
 * band reached between 10K and 16K, the CM-5 28-32 / 58-67 ranges,
 * and roughly equivalent per-processor rates.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "core/cedar.hh"
#include "exec/parallel.hh"
#include "valid/scenario.hh"

namespace cedar::valid {

namespace {

double
cgSerialEstimateSeconds(unsigned n, unsigned iterations)
{
    // Best uniprocessor baseline: a vectorized one-CE CG is bound by
    // its global-memory streams at ~2.56 cycles per flop (~2.3
    // MFLOPS); speedups for algorithm studies are quoted against the
    // best serial version, not the scalar one.
    double cycles = 19.0 * n * iterations * 2.56;
    return ticksToSeconds(static_cast<Tick>(cycles));
}

void
runPpt4(ScenarioContext &ctx)
{
    std::printf("PPT4 study: CG scalability on Cedar vs CM-5 banded "
                "matvec\n\n");

    const unsigned sizes[] = {1024, 4096, 10240, 16384, 32768, 65536,
                              98304, 172032};
    const unsigned procs[] = {2, 4, 8, 16, 32};

    core::TableWriter table({"N", "P", "MFLOPS", "speedup", "band"});
    std::vector<method::ScalePoint> points;
    double mflops_min_32 = 1e9, mflops_max_32 = 0.0;

    // Enumerate the admissible (N, P) grid first, run the points as
    // independent tasks, then reduce in grid order so the table,
    // ScalePoint list, and min/max never depend on completion order.
    struct CgPoint
    {
        unsigned n, p;
    };
    struct CgRun
    {
        double rate = 0.0, seconds = 0.0;
    };
    std::vector<CgPoint> grid;
    for (unsigned n : sizes)
        for (unsigned p : procs)
            if (n % (p * 32) == 0)
                grid.push_back({n, p});

    std::vector<std::function<CgRun()>> tasks;
    tasks.reserve(grid.size());
    for (const CgPoint pt : grid) {
        tasks.push_back([&ctx, pt] {
            machine::CedarMachine machine(ctx.config());
            ctx.observe(machine, "cg n=" + std::to_string(pt.n) +
                                     " p=" + std::to_string(pt.p));
            kernels::CgTimedParams params;
            params.n = pt.n;
            params.m = 128;
            params.ces = pt.p;
            params.iterations = 2;
            auto res = kernels::runCgTimed(machine, params);
            return CgRun{res.mflopsRate(), res.seconds()};
        });
    }
    auto runs = exec::parallelMap<CgRun>(ctx.jobs(), std::move(tasks));

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const unsigned n = grid[i].n, p = grid[i].p;
        double rate = runs[i].rate;
        double serial = cgSerialEstimateSeconds(n, 2);
        double spd = serial / runs[i].seconds;
        points.push_back(method::ScalePoint{p, double(n), spd});
        if (p == 32 && n >= 10240) {
            // The paper quotes the 32-CE rate range for 10K..172K.
            mflops_min_32 = std::min(mflops_min_32, rate);
            mflops_max_32 = std::max(mflops_max_32, rate);
        }
        table.row({core::fmt(n, 0), core::fmt(p, 0), core::fmt(rate),
                   core::fmt(spd),
                   method::bandName(method::classify(spd, p))});
    }
    table.print();

    auto ppt4 = method::evaluatePpt4(points);
    std::printf("\nCedar 32-CE MFLOPS range: %.0f..%.0f (paper: 34..48 "
                "for 10K..172K)\n",
                mflops_min_32, mflops_max_32);
    std::printf("high band reached at N >= %.0f on 32 CEs (paper: "
                "between 10K and 16K)\n",
                ppt4.high_band_threshold_n);
    std::printf("scalable: %s, scalable high: %s  (St high regime "
                "%.2f, intermediate regime %.2f)\n\n",
                ppt4.scalable ? "yes" : "no",
                ppt4.scalable_high ? "yes" : "no", ppt4.high_stability,
                ppt4.intermediate_stability);

    std::printf("CM-5 banded matrix-vector (no FP accelerators, "
                "[FWPS92] model):\n");
    method::Cm5Model cm5;
    double cm5_bw3_min = 1e9, cm5_bw3_max = 0.0;
    double cm5_bw11_min = 1e9, cm5_bw11_max = 0.0;
    core::TableWriter cm5_table(
        {"BW", "N", "32-node MFLOPS", "band@32", "band@256", "band@512"});
    for (unsigned bw : {3u, 11u}) {
        for (double n : {16384.0, 65536.0, 262144.0}) {
            double rate = cm5.mflops(bw, n, 32);
            if (bw == 3) {
                cm5_bw3_min = std::min(cm5_bw3_min, rate);
                cm5_bw3_max = std::max(cm5_bw3_max, rate);
            } else {
                cm5_bw11_min = std::min(cm5_bw11_min, rate);
                cm5_bw11_max = std::max(cm5_bw11_max, rate);
            }
            cm5_table.row(
                {core::fmt(bw, 0), core::fmt(n, 0), core::fmt(rate),
                 method::bandName(cm5.band(bw, n, 32)),
                 method::bandName(cm5.band(bw, n, 256)),
                 method::bandName(cm5.band(bw, n, 512))});
        }
    }
    cm5_table.print();
    std::printf("(paper: 28-32 MFLOPS BW=3, 58-67 MFLOPS BW=11 at 32 "
                "nodes; scalable intermediate, never high)\n");

    // Extension: the like-for-like comparison the paper implies but
    // never ran — the same banded matvec on Cedar's 32 CEs.
    std::printf("\nCedar banded matrix-vector (extension, same "
                "computation as the CM-5 rows):\n");
    core::TableWriter banded_table({"BW", "N", "32-CE MFLOPS"});
    std::vector<std::function<double()>> banded_tasks;
    for (unsigned bw : {3u, 11u}) {
        for (unsigned n : {16384u, 65536u, 262144u}) {
            banded_tasks.push_back([&ctx, bw, n] {
                machine::CedarMachine machine(ctx.config());
                ctx.observe(machine, "banded bw=" + std::to_string(bw) +
                                         " n=" + std::to_string(n));
                kernels::BandedParams bparams;
                bparams.n = n;
                bparams.bandwidth = bw;
                bparams.ces = 32;
                return kernels::runBanded(machine, bparams).mflopsRate();
            });
        }
    }
    auto banded_rates =
        exec::parallelMap<double>(ctx.jobs(), std::move(banded_tasks));
    {
        std::size_t i = 0;
        for (unsigned bw : {3u, 11u}) {
            for (unsigned n : {16384u, 65536u, 262144u}) {
                banded_table.row({core::fmt(bw, 0), core::fmt(n, 0),
                                  core::fmt(banded_rates[i++])});
            }
        }
    }
    banded_table.print();

    double cedar_per_proc = (mflops_min_32 + mflops_max_32) / 2.0 / 32.0;
    double cm5_per_proc =
        (cm5.mflops(3, 65536, 32) + cm5.mflops(11, 65536, 32)) / 2.0 /
        32.0;
    std::printf("\nper-processor MFLOPS: Cedar %.2f, CM-5 %.2f (paper: "
                "roughly equivalent)\n",
                cedar_per_proc, cm5_per_proc);

    const double nan = std::numeric_limits<double>::quiet_NaN();
    ctx.cell("mflops_min_32", mflops_min_32,
             {34.0, 0.15, 1e-6,
              "Sec. 4.3: Cedar 32-CE lower rate, 34..48 band"});
    ctx.cell("mflops_max_32", mflops_max_32,
             {48.0, 0.15, 1e-6,
              "Sec. 4.3: Cedar 32-CE upper rate, 34..48 band"});
    ctx.cell("high_band_threshold_n", ppt4.high_band_threshold_n,
             {nan, 0.0, 1e-6,
              "high band reached between 10K and 16K on 32 CEs"});
    ctx.cell("high_threshold_in_band",
             (ppt4.high_band_threshold_n >= 10240.0 &&
              ppt4.high_band_threshold_n <= 16384.0)
                 ? 1.0
                 : 0.0,
             {1.0, 0.0, 0.0,
              "stated: the high threshold sits between 10K and 16K"});
    ctx.cell("scalable", ppt4.scalable ? 1.0 : 0.0,
             {1.0, 0.0, 0.0, "stated: CG on Cedar is scalable"});
    ctx.cell("scalable_high", ppt4.scalable_high ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "stated: scalable high performance above the threshold"});
    ctx.cell("high_stability", ppt4.high_stability,
             {nan, 0.0, 1e-6, "St over the high regime"});
    ctx.cell("intermediate_stability", ppt4.intermediate_stability,
             {nan, 0.0, 1e-6, "St over the intermediate regime"});
    ctx.cell("cm5_bw3_min_mflops", cm5_bw3_min,
             {28.0, 0.08, 1e-6, "[FWPS92]: 28-32 MFLOPS at BW=3"});
    ctx.cell("cm5_bw3_max_mflops", cm5_bw3_max,
             {32.0, 0.08, 1e-6, "[FWPS92]: 28-32 MFLOPS at BW=3"});
    ctx.cell("cm5_bw11_min_mflops", cm5_bw11_min,
             {58.0, 0.08, 1e-6, "[FWPS92]: 58-67 MFLOPS at BW=11"});
    ctx.cell("cm5_bw11_max_mflops", cm5_bw11_max,
             {67.0, 0.08, 1e-6, "[FWPS92]: 58-67 MFLOPS at BW=11"});
    ctx.cell("cedar_per_proc_mflops", cedar_per_proc,
             {nan, 0.0, 1e-6, "Cedar mean per-processor rate"});
    ctx.cell("cm5_per_proc_mflops", cm5_per_proc,
             {nan, 0.0, 1e-6, "CM-5 mean per-processor rate"});
    ctx.cell("per_proc_ratio", cedar_per_proc / cm5_per_proc,
             {1.0, 0.35, 1e-6,
              "stated: per-processor rates roughly equivalent"});
}

} // namespace

namespace detail {

void
registerPpt4Scalability()
{
    registerScenario({"ppt4_scalability",
                      "Section 4.3 - PPT4 CG scalability vs CM-5", false,
                      runPpt4});
}

} // namespace detail

} // namespace cedar::valid
