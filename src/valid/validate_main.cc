/**
 * @file
 * cedar_validate — the paper-fidelity golden harness runner.
 *
 * A thin CLI over valid::runValidation(): parses options, hands them
 * to the driver, prints the report. `--jobs N` runs scenarios
 * concurrently through exec::parallelMap; the report is assembled in
 * submission order, so its bytes are identical for every N
 * (tests/test_exec.cc holds this to `--jobs 1` vs `--jobs 8`).
 * `--point-jobs N` instead parallelizes the points inside each
 * scenario's sweep, the right knob for the long sweeps. `--update-golden`
 * refreezes the golden files from the current build; `--perturb
 * key=value` injects a machine-model change to prove the suite
 * catches regressions. Under CEDAR_HOST_PROFILE=1 the top event kinds
 * by exclusive host time follow the report on stderr.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/cedar.hh"
#include "sim/hostprof.hh"
#include "valid/driver.hh"
#include "valid/golden.hh"
#include "valid/json.hh"
#include "valid/scenario.hh"

namespace {

using namespace cedar;
using namespace cedar::valid;

int
usage(const char *argv0, int code)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --list               list registered scenarios and exit\n"
        "  --filter SUBSTR      run only scenarios whose name contains "
        "SUBSTR (repeatable)\n"
        "  --fast               run only fast (tier-1) scenarios\n"
        "  --jobs N             run up to N scenarios concurrently "
        "(default 1; report bytes are identical for any N)\n"
        "  --point-jobs N       worker budget for each scenario's "
        "internal sweep (default 1)\n"
        "  --update-golden      refreeze golden files from this run\n"
        "  --json               emit a machine-readable report\n"
        "  --verbose            keep scenario table printing on stdout "
        "(forces --jobs 1)\n"
        "  --golden-dir DIR     override the golden directory\n"
        "  --telemetry-dir DIR  stream interval telemetry, one "
        "DIR/<scenario>.jsonl per scenario (byte-identical at any "
        "--jobs)\n"
        "  --telemetry-interval N  sampling period in ticks "
        "(default 100000)\n"
        "  --perturb KEY=VALUE  perturb the machine config "
        "(repeatable); e.g. gm.module_conflict_extra=3\n",
        argv0);
    return code;
}

/** One perturbable knob: name -> setter. */
struct Knob
{
    const char *key;
    std::function<void(machine::CedarConfig &, double)> set;
};

const std::vector<Knob> &
knobs()
{
    static const std::vector<Knob> k = {
        {"num_clusters",
         [](machine::CedarConfig &c, double v) {
             c.num_clusters = unsigned(v);
         }},
        {"gm.module_conflict_extra",
         [](machine::CedarConfig &c, double v) {
             c.gm.module_conflict_extra = Cycles(v);
         }},
        {"gm.module_access_cycles",
         [](machine::CedarConfig &c, double v) {
             c.gm.module_access_cycles = Cycles(v);
         }},
        {"gm.sync_extra_cycles",
         [](machine::CedarConfig &c, double v) {
             c.gm.sync_extra_cycles = Cycles(v);
         }},
        {"gm.hop_latency",
         [](machine::CedarConfig &c, double v) {
             c.gm.hop_latency = Cycles(v);
         }},
        {"gm.word_occupancy",
         [](machine::CedarConfig &c, double v) {
             c.gm.word_occupancy = Cycles(v);
         }},
        {"gm.port_queue_words",
         [](machine::CedarConfig &c, double v) {
             c.gm.port_queue_words = unsigned(v);
         }},
        {"gm.num_modules",
         [](machine::CedarConfig &c, double v) {
             c.gm.num_modules = unsigned(v);
         }},
        {"cluster.pfu.issue_interval",
         [](machine::CedarConfig &c, double v) {
             c.cluster.pfu.issue_interval = Cycles(v);
         }},
        {"cluster.pfu.buffer_words",
         [](machine::CedarConfig &c, double v) {
             c.cluster.pfu.buffer_words = unsigned(v);
         }},
        {"cluster.pfu.page_cross_penalty",
         [](machine::CedarConfig &c, double v) {
             c.cluster.pfu.page_cross_penalty = Cycles(v);
         }},
        {"cluster.ce.vector_startup",
         [](machine::CedarConfig &c, double v) {
             c.cluster.ce.vector_startup = Cycles(v);
         }},
        {"cluster.ce.issue_cycles",
         [](machine::CedarConfig &c, double v) {
             c.cluster.ce.issue_cycles = Cycles(v);
         }},
        {"cluster.cache.words_per_cycle",
         [](machine::CedarConfig &c, double v) {
             c.cluster.cache.words_per_cycle = unsigned(v);
         }},
        {"cluster.cache.contention_penalty_pct",
         [](machine::CedarConfig &c, double v) {
             c.cluster.cache.contention_penalty_pct = unsigned(v);
         }},
        {"cluster.cmem.words_per_cycle",
         [](machine::CedarConfig &c, double v) {
             c.cluster.cmem.words_per_cycle = unsigned(v);
         }},
        {"cluster.cmem.latency",
         [](machine::CedarConfig &c, double v) {
             c.cluster.cmem.latency = Cycles(v);
         }},
        {"gm.crossbar_arb_extra",
         [](machine::CedarConfig &c, double v) {
             c.gm.crossbar_arb_cycles =
                 c.gm.crossbar_arb_cycles + Cycles(v);
         }},
        {"gm.fat_tree_arity",
         [](machine::CedarConfig &c, double v) {
             c.gm.fat_tree_arity = unsigned(v);
         }},
    };
    return k;
}

struct Perturbation
{
    std::string key;
    double value;
};

unsigned
parseJobs(const char *arg, const char *flag)
{
    char *end = nullptr;
    long v = std::strtol(arg, &end, 10);
    if (!end || *end != '\0' || v < 1 || v > 1024) {
        std::fprintf(stderr, "%s wants a worker count in [1, 1024], "
                             "got '%s'\n",
                     flag, arg);
        std::exit(2);
    }
    return unsigned(v);
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);

    bool list = false, json = false;
    ValidationOptions vopts;
    std::vector<Perturbation> perturbations;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs %s\n", arg.c_str(), what);
                std::exit(usage(argv[0], 2));
            }
            return argv[++i];
        };
        if (arg == "--list") {
            list = true;
        } else if (arg == "--update-golden") {
            vopts.update = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--verbose") {
            vopts.verbose = true;
        } else if (arg == "--fast") {
            vopts.fast_only = true;
        } else if (arg == "--jobs" || arg == "-j") {
            vopts.jobs = parseJobs(next("a worker count"), "--jobs");
        } else if (arg == "--point-jobs") {
            vopts.point_jobs =
                parseJobs(next("a worker count"), "--point-jobs");
        } else if (arg == "--filter") {
            vopts.filters.push_back(next("a name substring"));
        } else if (arg == "--golden-dir") {
            vopts.golden_dir = next("a directory");
        } else if (arg == "--telemetry-dir") {
            vopts.telemetry_dir = next("a directory");
        } else if (arg == "--telemetry-interval") {
            const char *v = next("a tick count");
            char *end = nullptr;
            long long ticks = std::strtoll(v, &end, 10);
            if (!end || *end != '\0' || ticks < 1) {
                std::fprintf(stderr, "--telemetry-interval wants a "
                                     "positive tick count, got '%s'\n",
                             v);
                return 2;
            }
            vopts.telemetry_interval = Tick(ticks);
        } else if (arg == "--perturb") {
            std::string spec = next("KEY=VALUE");
            auto eq = spec.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::fprintf(stderr, "--perturb wants KEY=VALUE, got "
                                     "'%s'\n",
                             spec.c_str());
                return 2;
            }
            Perturbation p;
            p.key = spec.substr(0, eq);
            try {
                p.value = std::stod(spec.substr(eq + 1));
            } catch (const std::exception &) {
                std::fprintf(stderr, "--perturb %s: value is not a "
                                     "number\n",
                             spec.c_str());
                return 2;
            }
            bool known = false;
            for (const auto &k : knobs())
                known = known || p.key == k.key;
            if (!known) {
                std::fprintf(stderr, "--perturb: unknown knob '%s'; "
                                     "knobs:\n",
                             p.key.c_str());
                for (const auto &k : knobs())
                    std::fprintf(stderr, "  %s\n", k.key);
                return 2;
            }
            perturbations.push_back(std::move(p));
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return usage(argv[0], 2);
        }
    }

    if (vopts.update && !perturbations.empty()) {
        std::fprintf(stderr,
                     "refusing --update-golden with --perturb: that "
                     "would freeze a perturbed machine as the truth\n");
        return 2;
    }

    if (list) {
        const auto chosen = selectScenarios(vopts);
        for (const Scenario *s : chosen) {
            std::printf("%-22s %-5s %s\n", s->name.c_str(),
                        s->fast ? "fast" : "slow", s->title.c_str());
        }
        if (chosen.empty()) {
            std::fprintf(stderr, "no scenario matched the filter\n");
            return 2;
        }
        return 0;
    }

    if (!perturbations.empty()) {
        vopts.config_hook = [perturbations](machine::CedarConfig &cfg) {
            for (const auto &p : perturbations)
                for (const auto &k : knobs())
                    if (p.key == k.key)
                        k.set(cfg, p.value);
        };
    }

    ValidationReport report = runValidation(vopts);

    std::fputs(report.logText().c_str(), stderr);
    // Host-dependent, so never part of the report; the table is empty
    // unless CEDAR_HOST_PROFILE=1 armed the engines.
    const auto prof = HostProfiler::globalTable();
    if (!prof.empty()) {
        std::fprintf(stderr, "host profile (top event kinds by exclusive "
                             "host time):\n");
        for (std::size_t i = 0; i < std::min<std::size_t>(prof.size(), 10);
             ++i) {
            std::fprintf(stderr, "  %-24s %12llu dispatches %9.3f s\n",
                         prof[i].kind.c_str(),
                         static_cast<unsigned long long>(
                             prof[i].dispatches),
                         prof[i].seconds);
        }
    }
    if (json && !vopts.update)
        std::printf("%s\n", report.jsonReport().dump(2).c_str());
    return report.exitCode();
}
