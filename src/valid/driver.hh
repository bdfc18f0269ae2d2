/**
 * @file
 * The validation driver: the library form of `cedar_validate`.
 *
 * runValidation() selects scenarios, runs them (optionally on `jobs`
 * threads through exec::parallelMap), golden-checks each one, and
 * returns a ValidationReport whose rendered forms — logText() and
 * jsonReport() — are assembled from outcomes held in *submission
 * order*. Runs may finish out of order across threads, but the report
 * is byte-for-byte identical for any thread count; tests/test_exec.cc
 * enforces this.
 */

#ifndef CEDARSIM_VALID_DRIVER_HH
#define CEDARSIM_VALID_DRIVER_HH

#include <functional>
#include <string>
#include <vector>

#include "machine/config.hh"
#include "valid/golden.hh"
#include "valid/json.hh"
#include "valid/scenario.hh"

namespace cedar::valid {

/** Everything the cedar_validate CLI can ask for, minus arg parsing. */
struct ValidationOptions
{
    /** Refreeze golden files instead of checking against them. */
    bool update = false;
    /** Keep scenario table printing on stdout (forces jobs = 1). */
    bool verbose = false;
    /** Run only fast (tier-1) scenarios. */
    bool fast_only = false;
    /**
     * Scenario-level parallelism: how many scenarios run concurrently
     * through exec::parallelMap. <= 1 takes the literal inline serial
     * path.
     */
    unsigned jobs = 1;
    /**
     * Point-level parallelism handed to each scenario for its internal
     * sweep (ScenarioOptions::jobs). Keep 1 when jobs > 1 — nesting
     * parallelMap calls multiplies threads without adding runnable
     * work.
     */
    unsigned point_jobs = 1;
    /** Golden directory override; empty means goldenDir(). */
    std::string golden_dir;
    /** Name substrings; empty means every scenario. */
    std::vector<std::string> filters;
    /** Machine-config perturbation applied to every run (re-entrant). */
    std::function<void(machine::CedarConfig &)> config_hook;
    /**
     * When nonempty, every scenario streams interval telemetry and the
     * driver writes <dir>/<scenario>.jsonl from the serial reduce —
     * files are byte-identical at any jobs count. Each scenario's
     * internal sweep runs serially while telemetry is on.
     */
    std::string telemetry_dir;
    /** Sampling period for --telemetry-dir runs, in ticks. */
    Tick telemetry_interval = 100'000;
};

/** What happened to one scenario, in submission order. */
struct ScenarioOutcome
{
    std::string name;
    /** The scenario's run function threw; `error` holds what(). */
    bool threw = false;
    /** Golden load/check threw (missing/malformed file). */
    bool golden_error = false;
    std::string error;
    /** Valid when the scenario ran and update mode is off. */
    CheckResult result;
    /** Path written in update mode. */
    std::string golden_path;
    Metrics metrics;

    bool failed() const { return threw || golden_error || !result.ok(); }
};

/** The full result of one validation pass. */
struct ValidationReport
{
    bool update = false;
    unsigned ran = 0;
    unsigned failed = 0;
    std::vector<ScenarioOutcome> outcomes;

    /**
     * The exact text cedar_validate prints to stderr: per-scenario
     * ok/FAIL/wrote lines in submission order plus the summary line.
     */
    std::string logText() const;

    /** The exact `--json` report object (top-level "ok" etc). */
    Json jsonReport() const;

    /** 2 when nothing matched, 0 for update mode, else failed?1:0. */
    int exitCode() const;
};

/**
 * The scenarios @p opts selects (fast_only and name filters), in
 * registration order — what runValidation() runs and `--list` shows.
 */
std::vector<const Scenario *> selectScenarios(const ValidationOptions &opts);

/**
 * Run the selected scenarios and golden-check them.
 *
 * With opts.jobs > 1 the scenarios execute on parallelMap threads;
 * each run constructs its own machines, simulations, and stat
 * registries inside the task (per-run isolation, DESIGN.md §10), and
 * outcomes are merged back by submission index. Unless opts.verbose,
 * stdout is silenced for the whole pass — scenario table printing from
 * concurrent threads would interleave. Golden files are written
 * (update mode) from the serial reduce phase, never from threads.
 */
ValidationReport runValidation(const ValidationOptions &opts);

} // namespace cedar::valid

#endif // CEDARSIM_VALID_DRIVER_HH
