/**
 * @file
 * trajectory_runner — the perf-trajectory gate.
 *
 * Golden files pin the *simulated* numbers; nothing pinned the
 * simulator's own speed, so a PR could quietly make every run 2x
 * slower. This binary measures a small suite of host-side probes —
 * engine-stress event rates, the fast validation set's wall time, and
 * the long sweeps' wall time — best-of-K, and compares them against a
 * committed baseline (BENCH_baseline.json) with noise-aware margins:
 * a probe regresses only when it is worse than baseline by more than
 * max(floor, mult * (baseline_noise + current_noise)), where noise is
 * the best-to-worst spread observed across the K reps. `--record`
 * merges fresh numbers (and their noise bands) into the baseline;
 * `--check` exits nonzero on any regression, which is the CI gate.
 *
 * `--inject-slowdown F` scales the measured numbers after the fact to
 * prove the gate actually trips, and `--selftest` runs the whole
 * record/pass/injected-fail cycle hermetically against a temporary
 * baseline — that is the form tier-1 ctest runs on any build type.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/cedar.hh"
#include "core/provenance.hh"
#include "stress_core.hh"
#include "valid/driver.hh"
#include "valid/json.hh"

using namespace cedar;

namespace {

#ifndef CEDAR_BASELINE_DEFAULT
#define CEDAR_BASELINE_DEFAULT "BENCH_baseline.json"
#endif

/** Regression floor: anything within 35% of baseline never trips. */
constexpr double margin_floor = 0.35;
/** Noise multiplier: margin grows with observed run-to-run spread. */
constexpr double noise_mult = 3.0;

/** Shrunk by --selftest so Debug-build ctest stays quick. */
std::uint64_t g_stress_events = bench::stress::default_events;

struct Probe
{
    std::string name;
    /** true: events/sec style, bigger is better; false: seconds. */
    bool higher_better;
    int default_reps;
    std::function<double()> run;
};

double
timedSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

std::vector<Probe>
allProbes(unsigned sweep_jobs)
{
    using namespace bench::stress;
    std::vector<Probe> probes;

    probes.push_back({"engine_stress.member_rate", true, 3, [] {
                          Simulation warm;
                          runOnce(warm, g_stress_events / 20);
                          Simulation sim;
                          return runOnce(sim, g_stress_events).rate();
                      }});
    probes.push_back({"valid_fast.seconds", false, 3, [] {
                          return timedSeconds([] {
                              valid::ValidationOptions vopts;
                              vopts.fast_only = true;
                              valid::ValidationReport r =
                                  valid::runValidation(vopts);
                              if (r.exitCode() != 0) {
                                  std::fprintf(stderr,
                                               "trajectory: warning: fast "
                                               "validation not clean\n");
                              }
                          });
                      }});

    // Checkpoint-layer throughput and the warm-start win it buys.
    probes.push_back({"checkpoint.save_restore_mbps", true, 3, [] {
                          machine::CedarMachine machine;
                          kernels::Rank64Params p;
                          p.n = 192;
                          p.clusters = 2;
                          p.version =
                              kernels::Rank64Version::gm_prefetch;
                          kernels::runRank64(machine, p);
                          double bytes = 0.0;
                          double secs = timedSeconds([&] {
                              for (int i = 0; i < 5; ++i) {
                                  std::string s =
                                      machine.saveCheckpoint();
                                  machine.restoreCheckpoint(s);
                                  bytes += 2.0 * double(s.size());
                              }
                          });
                          return secs > 0.0
                                     ? bytes / (1024.0 * 1024.0) / secs
                                     : 0.0;
                      }});
    probes.push_back(
        {"checkpoint.warm_speedup", true, 2, [] {
             // A sweep point that resumes from a shared live-point
             // pays one measured unit instead of warm-up + unit.
             kernels::Rank64Params p;
             p.n = 192;
             p.clusters = 2;
             p.version = kernels::Rank64Version::gm_prefetch;
             auto unit = [&p](machine::CedarMachine &m) {
                 kernels::runRank64(m, p);
             };
             const unsigned warmup = 3;
             machine::CedarMachine warm_machine;
             for (unsigned u = 0; u < warmup; ++u)
                 unit(warm_machine);
             std::string live = warm_machine.saveCheckpoint();
             double cold = timedSeconds([&] {
                 machine::CedarMachine m;
                 for (unsigned u = 0; u <= warmup; ++u)
                     unit(m);
             });
             double warm = timedSeconds([&] {
                 machine::CedarMachine m;
                 m.restoreCheckpoint(live);
                 unit(m);
             });
             return warm > 0.0 ? cold / warm : 0.0;
         }});

    // The scale ceiling: a 256-cluster (2048-port) machine serving
    // uniform synthetic traffic. Covers construction, routing, and
    // reply traversal at 32x the paper's machine; the value is
    // simulated packets per host second, so a change that makes the
    // big fabrics slow to build or route trips here even though every
    // golden cell (which pins simulated time only) stays green.
    probes.push_back(
        {"scale.ppt256_rate", true, 2, [] {
             auto once = [] {
                 machine::CedarMachine m(
                     machine::CedarConfig::scaled(256));
                 net::TrafficParams p;
                 p.rounds = 4;
                 return net::runTraffic(m.sim(), m.gm().forwardNet(),
                                        m.gm().reverseNet(), p);
             };
             once(); // warm the allocator and page cache
             double packets = 0.0;
             double secs = timedSeconds([&] {
                 for (int i = 0; i < 3; ++i)
                     packets += double(once().packets);
             });
             return secs > 0.0 ? packets / secs : 0.0;
         }});

    for (const char *sweep : {"table1_rank64", "ppt4_scalability",
                              "ppt5_scaled", "ablation_network"}) {
        probes.push_back(
            {std::string("sweep.") + sweep + ".seconds", false, 2,
             [sweep, sweep_jobs] {
                 return timedSeconds([sweep, sweep_jobs] {
                     valid::ValidationOptions vopts;
                     vopts.filters = {sweep};
                     vopts.point_jobs = sweep_jobs;
                     valid::ValidationReport r =
                         valid::runValidation(vopts);
                     if (r.exitCode() != 0) {
                         std::fprintf(stderr,
                                      "trajectory: warning: sweep %s "
                                      "not clean\n",
                                      sweep);
                     }
                 });
             }});
    }
    return probes;
}

struct Measurement
{
    std::string name;
    bool higher_better;
    double best = 0.0;
    /** Best-to-worst spread across reps, relative to best. */
    double noise = 0.0;
    int reps = 0;
};

Measurement
measure(const Probe &p, int reps)
{
    Measurement m;
    m.name = p.name;
    m.higher_better = p.higher_better;
    m.reps = reps;
    double best = 0.0, worst = 0.0;
    for (int i = 0; i < reps; ++i) {
        double v = p.run();
        if (i == 0) {
            best = worst = v;
        } else if (p.higher_better) {
            best = std::max(best, v);
            worst = std::min(worst, v);
        } else {
            best = std::min(best, v);
            worst = std::max(worst, v);
        }
    }
    m.best = best;
    m.noise = best > 0.0 ? std::fabs(worst - best) / best : 0.0;
    return m;
}

int
usage(const char *argv0, int code)
{
    std::fprintf(
        stderr,
        "usage: %s [mode] [options]\n"
        "modes:\n"
        "  --check              compare against the baseline; exit 1 on\n"
        "                       regression (default mode)\n"
        "  --record             merge fresh measurements into the baseline\n"
        "  --selftest           hermetic record/pass/injected-fail cycle\n"
        "                       against a temporary baseline\n"
        "  --list               list probes and exit\n"
        "options:\n"
        "  --baseline PATH      baseline file (default: committed\n"
        "                       BENCH_baseline.json)\n"
        "  --best-of K          reps per probe (default: per-probe 2-3)\n"
        "  --filter SUBSTR      only probes whose name contains SUBSTR\n"
        "                       (repeatable)\n"
        "  --jobs N             point workers for the sweep probes\n"
        "                       (default: hardware concurrency)\n"
        "  --out FILE           also write current measurements as JSON\n"
        "  --inject-slowdown F  scale results as if the build were F x\n"
        "                       slower (gate demonstration)\n"
        "  --json               emit a machine-readable result line\n",
        argv0);
    return code;
}

valid::Json
loadBaseline(const std::string &path, bool required)
{
    std::ifstream in(path);
    if (!in) {
        if (required) {
            std::fprintf(stderr,
                         "trajectory: no baseline at %s (record one "
                         "with --record)\n",
                         path.c_str());
            std::exit(2);
        }
        return valid::Json::makeNull();
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
        return valid::Json::parse(ss.str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trajectory: malformed baseline %s: %s\n",
                     path.c_str(), e.what());
        std::exit(2);
    }
}

std::string
fmtValue(const Measurement &m, double v)
{
    char buf[64];
    if (m.higher_better)
        std::snprintf(buf, sizeof(buf), "%.3g ev/s", v);
    else
        std::snprintf(buf, sizeof(buf), "%.3f s", v);
    return buf;
}

/** One probe's comparison against the baseline. */
struct Verdict
{
    Measurement cur;
    bool in_baseline = false;
    double base_value = 0.0;
    double base_noise = 0.0;
    double margin = 0.0;
    /** Signed change, positive = worse (slower). */
    double worse_by = 0.0;
    bool regressed = false;
};

Verdict
judge(const Measurement &cur, const valid::Json &baseline)
{
    Verdict v;
    v.cur = cur;
    const valid::Json *metrics =
        baseline.isObject() ? baseline.get("metrics") : nullptr;
    const valid::Json *entry =
        metrics && metrics->isObject() ? metrics->get(cur.name) : nullptr;
    if (!entry || !entry->isObject())
        return v;
    const valid::Json *value = entry->get("value");
    if (!value || !value->isNumber())
        return v;
    v.in_baseline = true;
    v.base_value = value->asNumber();
    const valid::Json *noise = entry->get("noise");
    v.base_noise = noise && noise->isNumber() ? noise->asNumber() : 0.0;
    v.margin =
        std::max(margin_floor, noise_mult * (v.base_noise + cur.noise));
    if (v.base_value > 0.0) {
        v.worse_by = cur.higher_better
                         ? (v.base_value - cur.best) / v.base_value
                         : (cur.best - v.base_value) / v.base_value;
    }
    v.regressed = v.worse_by > v.margin;
    return v;
}

int
runTrajectory(int argc, char **argv)
{
    enum class Mode
    {
        check,
        record,
        list,
    } mode = Mode::check;

    std::string baseline_path = CEDAR_BASELINE_DEFAULT;
    std::string out_path;
    std::vector<std::string> filters;
    int best_of = 0; // 0 = per-probe default
    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    double inject = 1.0;

    core::BenchOutput out("trajectory", argc, argv);

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs %s\n", arg.c_str(), what);
                std::exit(usage(argv[0], 2));
            }
            return argv[++i];
        };
        if (arg == "--check") {
            mode = Mode::check;
        } else if (arg == "--record") {
            mode = Mode::record;
        } else if (arg == "--list") {
            mode = Mode::list;
        } else if (arg == "--baseline") {
            baseline_path = next("a path");
        } else if (arg == "--out") {
            out_path = next("a path");
        } else if (arg == "--filter") {
            filters.push_back(next("a name substring"));
        } else if (arg == "--best-of") {
            best_of = std::atoi(next("a rep count"));
            if (best_of < 1 || best_of > 20) {
                std::fprintf(stderr, "--best-of wants 1..20\n");
                return 2;
            }
        } else if (arg == "--jobs") {
            jobs = unsigned(std::atoi(next("a worker count")));
            if (jobs < 1 || jobs > 1024) {
                std::fprintf(stderr, "--jobs wants 1..1024\n");
                return 2;
            }
        } else if (arg == "--inject-slowdown") {
            inject = std::atof(next("a factor"));
            if (!(inject >= 1.0)) {
                std::fprintf(stderr,
                             "--inject-slowdown wants a factor >= 1\n");
                return 2;
            }
        } else if (arg == "--json") {
            // handled by BenchOutput
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return usage(argv[0], 2);
        }
    }

    auto probes = allProbes(jobs);
    auto selected = [&filters](const Probe &p) {
        if (filters.empty())
            return true;
        for (const auto &f : filters)
            if (p.name.find(f) != std::string::npos)
                return true;
        return false;
    };

    if (mode == Mode::list) {
        for (const auto &p : probes) {
            if (selected(p)) {
                std::printf("%-32s %s  best-of-%d\n", p.name.c_str(),
                            p.higher_better ? "rate   " : "seconds",
                            p.default_reps);
            }
        }
        return 0;
    }

    std::vector<Measurement> results;
    for (const auto &p : probes) {
        if (!selected(p))
            continue;
        std::fprintf(stderr, "trajectory: measuring %s ...\n",
                     p.name.c_str());
        Measurement m = measure(p, best_of ? best_of : p.default_reps);
        if (inject > 1.0) {
            // Post-measurement scaling: prove the gate trips without
            // actually shipping a slow build.
            if (m.higher_better)
                m.best /= inject;
            else
                m.best *= inject;
        }
        results.push_back(m);
    }
    if (results.empty()) {
        std::fprintf(stderr, "trajectory: no probe matched the filter\n");
        return 2;
    }

    const core::Provenance &prov = core::provenance();

    auto resultsJson = [&results, &prov] {
        valid::Json metrics = valid::Json::object();
        for (const auto &m : results) {
            valid::Json entry = valid::Json::object();
            entry.set("kind",
                      valid::Json::of(m.higher_better ? "rate" : "seconds"));
            entry.set("value", valid::Json::of(m.best));
            entry.set("noise", valid::Json::of(m.noise));
            entry.set("best_of", valid::Json::of(double(m.reps)));
            metrics.set(m.name, std::move(entry));
        }
        valid::Json top = valid::Json::object();
        top.set("v", valid::Json::of(1.0));
        top.set("git_sha", valid::Json::of(prov.git_sha));
        top.set("build_type", valid::Json::of(prov.build_type));
        top.set("host", valid::Json::of(prov.host));
        top.set("metrics", std::move(metrics));
        return top;
    };

    if (!out_path.empty()) {
        std::ofstream f(out_path);
        f << resultsJson().dump(2) << "\n";
    }

    if (mode == Mode::record) {
        // Merge into any existing baseline so a filtered --record does
        // not drop the other probes' entries.
        valid::Json existing = loadBaseline(baseline_path, false);
        valid::Json merged = resultsJson();
        if (existing.isObject() && existing.get("metrics") &&
            existing.get("metrics")->isObject()) {
            valid::Json *mine =
                const_cast<valid::Json *>(merged.get("metrics"));
            for (const auto &[key, entry] :
                 existing.get("metrics")->members()) {
                if (!mine->get(key))
                    mine->set(key, entry);
            }
        }
        std::ofstream f(baseline_path);
        if (!f) {
            std::fprintf(stderr, "trajectory: cannot write %s\n",
                         baseline_path.c_str());
            return 2;
        }
        f << merged.dump(2) << "\n";
        std::fprintf(stderr, "trajectory: wrote %zu metric(s) to %s\n",
                     results.size(), baseline_path.c_str());
        for (const auto &m : results)
            out.metric(m.name, m.best);
        out.emit();
        return 0;
    }

    // Check mode.
    valid::Json baseline = loadBaseline(baseline_path, true);
    core::TableWriter table({"probe", "baseline", "current", "change",
                             "margin", "verdict"});
    unsigned regressions = 0, unknown = 0;
    for (const auto &m : results) {
        Verdict v = judge(m, baseline);
        if (!v.in_baseline) {
            ++unknown;
            table.row({m.name, "-", fmtValue(m, m.best), "-", "-",
                       "no baseline"});
            continue;
        }
        if (v.regressed)
            ++regressions;
        char change[32], margin[32];
        // Positive always reads "faster than baseline".
        std::snprintf(change, sizeof(change), "%+.1f%%",
                      100.0 * -v.worse_by);
        std::snprintf(margin, sizeof(margin), "%.0f%%", 100.0 * v.margin);
        table.row({m.name, fmtValue(m, v.base_value),
                   fmtValue(m, m.best), change, margin,
                   v.regressed ? "REGRESSED" : "ok"});
        out.metric(m.name, m.best);
        out.metric(m.name + ".noise", m.noise);
    }
    table.print();
    if (unknown) {
        std::fprintf(stderr,
                     "trajectory: %u probe(s) missing from the baseline; "
                     "record them with --record\n",
                     unknown);
    }
    out.metric("regressions", double(regressions));
    out.emit();
    if (regressions) {
        std::fprintf(stderr, "trajectory: %u probe(s) REGRESSED beyond "
                             "the noise margin\n",
                     regressions);
        return 1;
    }
    std::fprintf(stderr, "trajectory: all probes within margin\n");
    return 0;
}

/**
 * Hermetic gate demonstration: record a temporary baseline from the
 * cheap probes, verify a re-check passes, then verify an injected 2x
 * slowdown fails. Independent of the committed baseline and of build
 * type, so tier-1 ctest can run it anywhere.
 */
int
selftest(const char *argv0)
{
    g_stress_events = bench::stress::default_events / 4;
    std::string path =
        (std::filesystem::temp_directory_path() /
         ("cedar_trajectory_selftest_" + std::to_string(::getpid()) +
          ".json"))
            .string();

    auto run = [&](std::vector<const char *> extra) {
        std::vector<char *> args;
        args.push_back(const_cast<char *>(argv0));
        for (const char *a : extra)
            args.push_back(const_cast<char *>(a));
        return runTrajectory(int(args.size()), args.data());
    };

    // Only the engine-stress probes: quick on any build type, and an
    // injected 10x dwarfs any plausible noise margin on a shared host.
    std::vector<const char *> base = {"--baseline", path.c_str(),
                                      "--filter", "engine_stress",
                                      "--best-of", "2"};

    auto with = [&base](std::vector<const char *> extra) {
        std::vector<const char *> all = base;
        all.insert(all.end(), extra.begin(), extra.end());
        return all;
    };

    int rc = 0;
    if (run(with({"--record"})) != 0) {
        std::fprintf(stderr, "selftest: FAIL (record step errored)\n");
        rc = 1;
    } else if (run(with({"--check"})) != 0) {
        std::fprintf(stderr,
                     "selftest: FAIL (clean re-check regressed)\n");
        rc = 1;
    } else if (run(with({"--check", "--inject-slowdown", "10.0"})) != 1) {
        std::fprintf(stderr,
                     "selftest: FAIL (injected 10x slowdown was NOT "
                     "caught)\n");
        rc = 1;
    } else {
        std::fprintf(stderr, "selftest: ok — gate passes clean runs and "
                             "catches an injected 10x slowdown\n");
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--selftest") == 0)
            return selftest(argv[0]);
    }
    return runTrajectory(argc, argv);
}
