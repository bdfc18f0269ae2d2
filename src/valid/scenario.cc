/**
 * @file
 * Scenario registry implementation.
 */

#include "valid/scenario.hh"

#include <cstdio>
#include <mutex>
#include <stdexcept>

#include <unistd.h>

#include "machine/cedar.hh"
#include "sim/statreg.hh"

namespace cedar::valid {

namespace detail {
// Defined in scenarios/all_scenarios.cc; calls every per-scenario
// registrar exactly once. An explicit call chain (rather than static
// initializers) so the scenarios survive static-library linking.
void registerAllScenarios();
} // namespace detail

namespace {

std::vector<Scenario> &
registry()
{
    static std::vector<Scenario> scenarios;
    return scenarios;
}

void
ensureRegistered()
{
    static std::once_flag once;
    std::call_once(once, [] { detail::registerAllScenarios(); });
}

} // namespace

const MetricValue *
Metrics::find(const std::string &key) const
{
    for (const auto &m : values)
        if (m.key == key)
            return &m;
    return nullptr;
}

double
Metrics::at(const std::string &key) const
{
    const MetricValue *m = find(key);
    if (!m)
        throw std::runtime_error("metrics: no value for key '" + key +
                                 "'");
    return m->value;
}

void
registerScenario(Scenario s)
{
    for (const auto &existing : registry()) {
        if (existing.name == s.name) {
            throw std::logic_error("scenario '" + s.name +
                                   "' registered twice");
        }
    }
    registry().push_back(std::move(s));
}

const std::vector<Scenario> &
allScenarios()
{
    ensureRegistered();
    return registry();
}

const Scenario *
findScenario(const std::string &name)
{
    for (const auto &s : allScenarios())
        if (s.name == name)
            return &s;
    return nullptr;
}

void
ScenarioContext::observe(machine::CedarMachine &m,
                         const std::string &point) const
{
    if (!telemetryEnabled())
        return;
    _telemetry.write("{\"v\":1,\"kind\":\"point\",\"label\":\"" +
                     jsonEscape(point) + "\"}");
    TelemetryParams params;
    params.interval = _opts.telemetry_interval;
    m.enableTelemetry(params, _telemetry);
}

Metrics
runScenario(const Scenario &s, const ScenarioOptions &opts)
{
    ScenarioContext ctx(opts);
    s.run(ctx);
    Metrics m = ctx.metrics();
    m.telemetry = ctx.telemetryText();
    return m;
}

StdoutSilencer::StdoutSilencer()
{
    std::fflush(stdout);
    _saved_fd = ::dup(STDOUT_FILENO);
    if (_saved_fd >= 0 && !std::freopen("/dev/null", "w", stdout)) {
        ::close(_saved_fd);
        _saved_fd = -1;
    }
}

StdoutSilencer::~StdoutSilencer()
{
    if (_saved_fd >= 0) {
        std::fflush(stdout);
        ::dup2(_saved_fd, STDOUT_FILENO);
        ::close(_saved_fd);
    }
}

} // namespace cedar::valid
