/**
 * @file
 * Scenario: network / prefetch design-space ablations on the
 * 4-cluster GM/pref rank-64 update. These calibrate DESIGN.md
 * decisions rather than paper cells, so most cells are drift
 * tripwires; the qualitative facts (conflict-extra monotonicity, the
 * ideal-fluid network failing to saturate, pacing insensitivity at
 * saturation, block-size amortization) are exact property cells.
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

double
rank64Mflops(const ScenarioContext &ctx, machine::CedarConfig cfg,
             unsigned prefetch_block, unsigned n = 256)
{
    ctx.tune(cfg);
    machine::CedarMachine machine(cfg);
    ctx.observe(machine, "rank64 n=" + std::to_string(n) +
                             " pfblock=" + std::to_string(prefetch_block));
    kernels::Rank64Params params;
    params.n = n;
    params.clusters = 4;
    params.version = kernels::Rank64Version::gm_prefetch;
    params.prefetch_block = prefetch_block;
    return kernels::runRank64(machine, params).mflopsRate();
}

void
runAblationNetwork(ScenarioContext &ctx)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::printf("Network / prefetch ablations (rank-64 GM/pref, 4 "
                "clusters; paper Table 1 value: 104 MFLOPS)\n\n");

    // All fourteen ablation points are independent machine runs; fan
    // them out, then print tables and emit cells from the merged
    // results in the original order (byte-identical for any jobs).
    std::vector<std::function<double()>> tasks;
    auto point = [&tasks](std::function<double()> fn) {
        tasks.push_back(std::move(fn));
        return tasks.size() - 1;
    };

    std::size_t conflict_at[4], modules_at[3], pacing_at[4] = {},
                                               block_at[4];
    for (Cycles extra : {0u, 1u, 2u, 3u}) {
        conflict_at[extra] = point([&ctx, extra] {
            machine::CedarConfig cfg;
            cfg.gm.module_conflict_extra = extra;
            return rank64Mflops(ctx, cfg, 256);
        });
    }
    {
        const std::pair<unsigned, Cycles> shapes[3] = {
            {16, 1}, {32, 2}, {32, 1}};
        for (int i = 0; i < 3; ++i) {
            modules_at[i] = point([&ctx, shape = shapes[i]] {
                machine::CedarConfig cfg;
                cfg.gm.num_modules = shape.first;
                cfg.gm.module_access_cycles = shape.second;
                return rank64Mflops(ctx, cfg, 256);
            });
        }
    }
    for (Cycles interval : {1u, 2u, 3u}) {
        pacing_at[interval] = point([&ctx, interval] {
            machine::CedarConfig cfg;
            cfg.cluster.pfu.issue_interval = interval;
            return rank64Mflops(ctx, cfg, 256);
        });
    }
    {
        const unsigned blocks[4] = {32, 64, 128, 256};
        for (int i = 0; i < 4; ++i) {
            block_at[i] = point([&ctx, block = blocks[i]] {
                machine::CedarConfig cfg;
                return rank64Mflops(ctx, cfg, block);
            });
        }
    }
    auto rates = exec::parallelMap<double>(ctx.jobs(), std::move(tasks));

    double conflict_rate[4];
    {
        core::TableWriter t({"module conflict extra (cycles)", "MFLOPS"});
        for (Cycles extra : {0u, 1u, 2u, 3u}) {
            double rate = rates[conflict_at[extra]];
            conflict_rate[extra] = rate;
            ctx.cell("conflict_extra_" + std::to_string(extra) +
                         "_mflops",
                     rate,
                     {nan, 0.0, 1e-6,
                      "rank-64 GM/pref with conflict extra = " +
                          std::to_string(extra)});
            t.row({core::fmt(extra, 0), core::fmt(rate)});
        }
        t.print();
        std::printf("(the shipped default is 2; 0 is the ideal-fluid "
                    "network that fails to saturate)\n\n");
    }
    ctx.cell("conflict_monotone",
             (conflict_rate[0] > conflict_rate[1] &&
              conflict_rate[1] > conflict_rate[2] &&
              conflict_rate[2] > conflict_rate[3])
                 ? 1.0
                 : 0.0,
             {1.0, 0.0, 0.0,
              "rate falls monotonically with the arbitration loss"});
    ctx.cell("ideal_fluid_overshoots",
             conflict_rate[0] > 1.3 * conflict_rate[2] ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "the conflict-free network misses the paper's 3-4 "
              "cluster saturation"});

    {
        core::TableWriter t(
            {"modules x access cycles", "peak w/cyc", "MFLOPS"});
        int shape = 0;
        for (auto [mods, access] :
             {std::pair<unsigned, Cycles>{16, 1}, {32, 2}, {32, 1}}) {
            double rate = rates[modules_at[shape++]];
            ctx.cell("modules_" + std::to_string(mods) + "x" +
                         std::to_string(access) + "_mflops",
                     rate,
                     {nan, 0.0, 1e-6,
                      "module sweep at constant/doubled peak bandwidth"});
            t.row({core::fmt(mods, 0) + " x " + core::fmt(access, 0),
                   core::fmt(double(mods) / access, 0),
                   core::fmt(rate)});
        }
        t.print();
        std::printf("(32 x 2 matches the 768 MB/s global bandwidth; "
                    "32 x 1 doubles it)\n\n");
    }

    double pacing_rate[4] = {};
    {
        core::TableWriter t({"PFU issue interval", "per-CE MB/s",
                             "MFLOPS"});
        for (Cycles interval : {1u, 2u, 3u}) {
            double mb =
                bytes_per_word / (interval * ce_cycle_ns * 1e-9) / 1e6;
            double rate = rates[pacing_at[interval]];
            pacing_rate[interval] = rate;
            ctx.cell("pacing_" + std::to_string(interval) + "_mflops",
                     rate,
                     {nan, 0.0, 1e-6,
                      "PFU issue pacing (interval 2 is the 24 MB/s "
                      "share)"});
            t.row({core::fmt(interval, 0), core::fmt(mb, 0),
                   core::fmt(rate)});
        }
        t.print();
        std::printf("(interval 2 realizes the paper's 24 MB/s per "
                    "processor)\n\n");
    }
    ctx.cell("pacing_insensitive_at_saturation",
             pacing_rate[1] / pacing_rate[3],
             {1.0, 0.05, 1e-6,
              "the saturated memory system hides the per-CE pacing"});

    double block_rate_32 = 0.0, block_rate_256 = 0.0;
    {
        core::TableWriter t({"prefetch block (words)", "MFLOPS"});
        int bi = 0;
        for (unsigned block : {32u, 64u, 128u, 256u}) {
            double rate = rates[block_at[bi++]];
            if (block == 32)
                block_rate_32 = rate;
            if (block == 256)
                block_rate_256 = rate;
            ctx.cell("block_" + std::to_string(block) + "_mflops", rate,
                     {nan, 0.0, 1e-6,
                      "prefetch block-size sweep on GM/pref rank-64"});
            t.row({core::fmt(block, 0), core::fmt(rate)});
        }
        t.print();
        std::printf("(the hand RK kernel's 256-word blocks amortize the "
                    "fire/consume pipeline bubbles)\n");
    }
    ctx.cell("block_amortization",
             block_rate_256 >= block_rate_32 ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "256-word blocks never lose to the compiler's 32-word "
              "blocks"});
}

} // namespace

namespace detail {

void
registerAblationNetwork()
{
    registerScenario({"ablation_network",
                      "Network / prefetch design-space ablations", false,
                      runAblationNetwork});
}

} // namespace detail

} // namespace cedar::valid
