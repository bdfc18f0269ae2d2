/**
 * @file
 * Scenario: the (machine x topology x traffic) matrix. Every fabric
 * family the Topology interface supports — the paper's omega network,
 * a fat tree, a full crossbar, and a combined forward/reverse omega —
 * serves every synthetic pattern on machines 2x and 16x the paper's
 * cluster count. The paper publishes none of these numbers (it stops
 * at 4 clusters and one network), so every latency cell is a drift
 * tripwire with its tolerance auto-derived from the simulator's
 * determinism, annotated with the fabric's analytic min-latency floor;
 * the structural guarantees (packet conservation, the floor itself)
 * are frozen as exact property cells.
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

struct FabricVariant
{
    const char *label;
    const char *topology;
    bool combined;
};

constexpr FabricVariant fabric_variants[] = {
    {"omega", "omega", false},
    {"fattree", "fattree", false},
    {"crossbar", "crossbar", false},
    {"combined", "omega", true},
};

struct TrafficPoint
{
    double mean_latency = 0.0;
    double mean_queueing = 0.0;
    double floor = 0.0;
    unsigned packets = 0;
    unsigned delivered = 0;
};

TrafficPoint
runPoint(const ScenarioContext &ctx, unsigned clusters,
         const FabricVariant &fabric, net::TrafficPattern pattern)
{
    auto cfg = machine::CedarConfig::scaled(clusters, fabric.topology,
                                            fabric.combined);
    ctx.tune(cfg);
    machine::CedarMachine machine(cfg);
    net::TrafficParams params;
    params.pattern = pattern;
    params.rounds = 8;
    auto res = net::runTraffic(machine.sim(), machine.gm().forwardNet(),
                               machine.gm().reverseNet(), params);
    TrafficPoint point;
    point.mean_latency = res.mean_latency;
    point.mean_queueing = res.mean_queueing;
    point.floor =
        static_cast<double>(machine.gm().forwardNet().minLatency() +
                            machine.gm().reverseNet().minLatency());
    point.packets = res.packets;
    point.delivered = res.delivered_words;
    return point;
}

void
runTrafficMatrix(ScenarioContext &ctx)
{
    std::printf("Traffic matrix: every fabric family x every synthetic "
                "pattern\n");
    std::printf("(8 rounds of request+reply traffic; latencies in "
                "cycles)\n\n");

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const unsigned scales[] = {8u, 64u};
    const auto patterns = net::allTrafficPatterns();

    struct PointKey
    {
        unsigned clusters;
        const FabricVariant *fabric;
        net::TrafficPattern pattern;
    };
    std::vector<PointKey> keys;
    std::vector<std::function<TrafficPoint()>> tasks;
    for (unsigned clusters : scales) {
        for (const auto &fabric : fabric_variants) {
            for (net::TrafficPattern pattern : patterns) {
                keys.push_back({clusters, &fabric, pattern});
                tasks.push_back([&ctx, clusters, &fabric, pattern] {
                    return runPoint(ctx, clusters, fabric, pattern);
                });
            }
        }
    }
    auto points =
        exec::parallelMap<TrafficPoint>(ctx.jobs(), std::move(tasks));

    core::TableWriter table(
        {"clusters", "fabric", "pattern", "mean lat", "queueing", "floor"});
    bool conserved = true, floored = true;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto &k = keys[i];
        const auto &p = points[i];
        // delivered counts the forward fabric's words: one request
        // per packet on a split fabric, request + response when the
        // combined fabric carries both directions.
        unsigned expected_words =
            p.packets * (k.fabric->combined ? 2u : 1u);
        conserved = conserved && p.delivered == expected_words &&
                    p.packets == 8u * k.clusters * 8u;
        floored = floored && p.mean_latency >= p.floor;
        table.row({core::fmt(k.clusters, 0), k.fabric->label,
                   net::trafficPatternName(k.pattern),
                   core::fmt(p.mean_latency, 3),
                   core::fmt(p.mean_queueing, 3), core::fmt(p.floor, 0)});
        std::string key = "c";
        key += std::to_string(k.clusters) + "_" + k.fabric->label + "_" +
               net::trafficPatternName(k.pattern) + "_lat";
        ctx.cell(key, p.mean_latency,
                 {nan, 0.0, 1e-6,
                  "mean latency, beyond-paper fabric (floor " +
                      core::fmt(p.floor, 0) +
                      "; tolerance auto-derived from determinism)"});
    }
    table.print();

    ctx.cell("packet_conservation", conserved ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "every injected packet delivered, at every point"});
    ctx.cell("latency_floor_respected", floored ? 1.0 : 0.0,
             {1.0, 0.0, 0.0,
              "mean latency never beats the minLatency() contract"});

    std::printf(
        "\nreading: the crossbar is the latency floor, the omega pays "
        "log8(P) stages, the\nfat tree pays twice its levels but "
        "rewards locality, and folding both directions\nonto one "
        "fabric costs queueing under load — the ordering the golden "
        "cells freeze.\n");
}

} // namespace

namespace detail {

void
registerTrafficMatrix()
{
    registerScenario({"traffic_matrix",
                      "Topology x traffic matrix (beyond the paper)",
                      true, runTrafficMatrix});
}

} // namespace detail

} // namespace cedar::valid
