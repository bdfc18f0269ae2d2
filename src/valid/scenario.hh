/**
 * @file
 * The scenario registry: every reproduced table, figure and study as
 * a headless run that emits structured metrics.
 *
 * A Scenario is the machine-checkable form of one EXPERIMENTS.md
 * section. Its run function drives the simulator, prints the section's
 * human-readable tables (shown by `cedar_validate --verbose`), and
 * records every number that EXPERIMENTS.md quotes as a *cell*: a
 * metric annotated with the paper's published value, an accepted
 * deviation band, and a provenance note. Cells are frozen into
 * tests/golden/<name>.json by `cedar_validate --update-golden` and
 * re-checked on every run, so a perf PR that silently shifts a
 * published number fails in CI instead of shipping.
 */

#ifndef CEDARSIM_VALID_SCENARIO_HH
#define CEDARSIM_VALID_SCENARIO_HH

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "machine/config.hh"
#include "sim/telemetry.hh"
#include "sim/types.hh"

namespace cedar::machine {
class CedarMachine;
}

namespace cedar::valid {

/**
 * Declaration of a checked cell, made where the value is measured.
 * Defaults suit a derived quantity with no directly published value:
 * no paper band, tight drift protection against regressions.
 */
struct CellSpec
{
    /** Published value; NaN when the paper states no direct number. */
    double paper = std::numeric_limits<double>::quiet_NaN();
    /**
     * Accepted relative deviation from the paper value. The default is
     * deliberately generous — the substrate is a simulator and
     * EXPERIMENTS.md documents systematic offsets; cells with exact
     * targets (counts, self-checks) narrow it to 0.
     */
    double paper_tol = 0.15;
    /**
     * Accepted relative drift from the *reproduced* golden value. The
     * simulator is deterministic, so this is tight by default: it is
     * the regression tripwire. Widen only for cells derived from
     * host-dependent measurements (there are none today).
     */
    double drift = 1e-6;
    /** Provenance: which table/figure/statement this cell encodes. */
    std::string note;
};

/** One recorded value: a plain metric or a golden-checked cell. */
struct MetricValue
{
    std::string key;
    double value = 0.0;
    /** True when declared via cell() and subject to golden checking. */
    bool checked = false;
    CellSpec spec;
};

/** Structured output of one scenario run. */
struct Metrics
{
    std::vector<MetricValue> values;
    /**
     * Interval-telemetry JSONL captured during the run (empty unless
     * ScenarioOptions::telemetry_interval was set). Records appear in
     * point submission order, so the text is byte-identical at any
     * scenario-level worker count.
     */
    std::string telemetry;

    const MetricValue *find(const std::string &key) const;
    double at(const std::string &key) const;
};

/** Options for one scenario run. */
struct ScenarioOptions
{
    /**
     * Applied to every machine configuration the scenario builds —
     * the injected-regression hook `cedar_validate --perturb` uses to
     * prove the suite catches model changes. Sweep scenarios apply it
     * from parallelMap threads, so the hook must be re-entrant (pure
     * function of the config it is handed; no mutable captures).
     */
    std::function<void(machine::CedarConfig &)> config_hook;
    /**
     * Worker budget for the scenario's *internal* parameter sweep
     * (exec::parallelMap over independent machine runs). 1 keeps the
     * literal serial path; results are bit-identical either way.
     */
    unsigned jobs = 1;
    /**
     * Interval-telemetry sampling period in ticks; 0 disables. When
     * set, every machine the scenario hands to ctx.observe() streams
     * JSONL records into the context, and the internal sweep is forced
     * serial (jobs() returns 1) so records land in point order.
     */
    Tick telemetry_interval = 0;
};

/**
 * Handed to a scenario's run function; collects cells and metrics.
 *
 * Not thread-safe by design: cell() and metric() must only be
 * called from the thread running the scenario. A sweep scenario that
 * fans its points out over jobs() workers returns plain values from
 * each point task and emits cells in a serial reduce afterwards, so
 * cell order — and therefore golden files and JSON reports — is
 * independent of worker scheduling (DESIGN.md §10).
 */
class ScenarioContext
{
  public:
    explicit ScenarioContext(const ScenarioOptions &opts) : _opts(opts) {}

    /** Worker budget for the scenario's internal parameter sweep
     *  (forced to 1 while telemetry streams, to keep point order). */
    unsigned
    jobs() const
    {
        if (_opts.telemetry_interval)
            return 1;
        return _opts.jobs ? _opts.jobs : 1;
    }

    /** True when interval telemetry is being captured. */
    bool telemetryEnabled() const { return _opts.telemetry_interval > 0; }

    /** The standard machine configuration with any perturbation. */
    machine::CedarConfig
    config() const
    {
        machine::CedarConfig cfg = machine::CedarConfig::standard();
        tune(cfg);
        return cfg;
    }

    /** Apply the perturbation hook to a custom configuration. */
    void
    tune(machine::CedarConfig &cfg) const
    {
        if (_opts.config_hook)
            _opts.config_hook(cfg);
    }

    /** Record an unchecked metric (informational only). */
    void
    metric(const std::string &key, double value)
    {
        _metrics.values.push_back({key, value, false, {}});
    }

    /** Record a golden-checked cell. */
    void
    cell(const std::string &key, double value, CellSpec spec = {})
    {
        _metrics.values.push_back({key, value, true, std::move(spec)});
    }

    const Metrics &metrics() const { return _metrics; }

    /**
     * Offer a machine for observation. A no-op unless telemetry is
     * enabled; when it is, a point-marker record naming @p point is
     * written and the machine streams interval records into this
     * context until it is destroyed. Call right after constructing
     * each machine, from the scenario thread only (telemetry forces
     * the internal sweep serial, so point lambdas qualify).
     */
    void observe(machine::CedarMachine &m,
                 const std::string &point = "") const;

    /** The captured telemetry JSONL (empty when disabled). */
    std::string telemetryText() const { return _telemetry.text(); }

  private:
    const ScenarioOptions &_opts;
    Metrics _metrics;
    /** Mutable so const helpers can offer machines for observation —
     *  recording telemetry never alters the scenario's results. */
    mutable RingTelemetrySink _telemetry;
};

/** One registered reproduction scenario. */
struct Scenario
{
    /** The `--filter` name and the golden file stem. */
    std::string name;
    /** The EXPERIMENTS.md section this scenario reproduces. */
    std::string title;
    /**
     * Fast scenarios run in tier-1 ctest; slow full sweeps are
     * registered under the `validation` configuration only.
     */
    bool fast = true;
    std::function<void(ScenarioContext &)> run;
};

/** Register a scenario (called by the per-scenario registrars). */
void registerScenario(Scenario s);

/** All registered scenarios, in registration (EXPERIMENTS.md) order. */
const std::vector<Scenario> &allScenarios();

/** Find a scenario by exact name; nullptr when absent. */
const Scenario *findScenario(const std::string &name);

/** Run one scenario and return its metrics. */
Metrics runScenario(const Scenario &s, const ScenarioOptions &opts);

/**
 * RAII stdout silencer: parks the stream in /dev/null so scenario
 * table printing disappears from validation runs without --verbose.
 */
class StdoutSilencer
{
  public:
    StdoutSilencer();
    ~StdoutSilencer();
    StdoutSilencer(const StdoutSilencer &) = delete;
    StdoutSilencer &operator=(const StdoutSilencer &) = delete;

  private:
    int _saved_fd = -1;
};

} // namespace cedar::valid

#endif // CEDARSIM_VALID_SCENARIO_HH
