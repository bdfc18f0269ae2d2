/**
 * @file
 * Watchdog implementation: wait registry and hang-to-error conversion.
 */

#include "watchdog.hh"

#include <cstdio>
#include <sstream>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace cedar {

Watchdog::Watchdog(const std::string &name, const WatchdogParams &params)
    : Named(name), _params(params)
{
    sim_assert(_params.check_every_events > 0,
               "watchdog check interval must be positive");
}

unsigned
Watchdog::beginWait(std::string what)
{
    unsigned token = _next_token++;
    _waits.emplace(token, std::move(what));
    _waits_begun.inc();
    return token;
}

void
Watchdog::endWait(unsigned token)
{
    auto it = _waits.find(token);
    sim_assert(it != _waits.end(), "endWait on unknown token ", token);
    _waits.erase(it);
}

std::vector<std::string>
Watchdog::waitDescriptions() const
{
    std::vector<std::string> out;
    out.reserve(_waits.size());
    for (const auto &[token, what] : _waits)
        out.push_back(what);
    return out;
}

void
Watchdog::onRunStart(Tick now)
{
    // A run may start far into simulated time; never count the idle
    // span before it against the livelock window.
    if (now > _last_progress)
        _last_progress = now;
    _events_since_check = 0;
}

void
Watchdog::onEvent(Tick now)
{
    if (!_params.enabled)
        return;
    if (++_events_since_check < _params.check_every_events)
        return;
    _events_since_check = 0;
    if (now > _last_progress &&
        now - _last_progress > _params.livelock_window) {
        std::ostringstream os;
        os << "no forward progress for " << (now - _last_progress)
           << " ticks (window " << _params.livelock_window
           << "); events are executing but nothing completes";
        raise(SimError::Kind::livelock, now, os.str());
    }
}

void
Watchdog::onDrain(Tick now)
{
    if (!_params.enabled || _waits.empty())
        return;
    std::ostringstream os;
    os << "event queue drained with " << _waits.size()
       << " component(s) still waiting:";
    for (const auto &[token, what] : _waits)
        os << "\n  - " << what;
    raise(SimError::Kind::deadlock, now, os.str());
}

void
Watchdog::raise(SimError::Kind kind, Tick now, const std::string &message)
{
    std::string diag = _diagnostics ? _diagnostics() : std::string{};
    if (!logQuiet()) {
        std::fprintf(stderr, "watchdog: %s: %s\n",
                     SimError::kindName(kind), message.c_str());
        if (!diag.empty())
            std::fprintf(stderr, "---- diagnostic bundle ----\n%s\n",
                         diag.c_str());
    }
    if (abortOnError())
        std::abort();
    throw SimError(kind, name(), now, message, std::move(diag));
}

void
Watchdog::registerStats(StatRegistry &reg)
{
    reg.addCounter(child("progress_marks"), _progress_marks);
    reg.addCounter(child("waits_begun"), _waits_begun);
    reg.addScalar(child("pending_waits"), [this] {
        return static_cast<double>(_waits.size());
    });
}

void
Watchdog::saveState(CheckpointWriter &w) const
{
    if (!_waits.empty()) {
        checkpointError(name(),
                        std::to_string(_waits.size()) +
                            " waits outstanding; a machine with blocked "
                            "components is not at a quiescent point");
    }
    auto &sec = w.section(name());
    sec.u64("last_progress", _last_progress);
    sec.u64("next_token", _next_token);
    sec.counter("progress_marks", _progress_marks);
    sec.counter("waits_begun", _waits_begun);
}

void
Watchdog::restoreState(const CheckpointReader &r)
{
    const auto &sec = r.section(name());
    _last_progress = sec.u64("last_progress");
    _next_token = sec.u32("next_token");
    sec.counter("progress_marks", _progress_marks);
    sec.counter("waits_begun", _waits_begun);
    _waits.clear();
    _events_since_check = 0;
}

} // namespace cedar
