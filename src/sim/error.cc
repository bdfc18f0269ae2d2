/**
 * @file
 * SimError construction and the current-tick error context.
 */

#include "error.hh"

#include <sstream>

namespace cedar {

namespace {

/** Per-thread: concurrent sweep threads each drive their own
 *  Simulation, and an error raised on one must be stamped with that
 *  run's simulated time, not a sibling's. */
thread_local Tick current_tick = 0;

std::string
formatWhat(SimError::Kind kind, const std::string &component, Tick tick,
           const std::string &message)
{
    std::ostringstream os;
    os << SimError::kindName(kind);
    if (!component.empty())
        os << " [" << component << "]";
    os << " at tick " << tick << ": " << message;
    return os.str();
}

} // namespace

SimError::SimError(Kind kind, std::string component, Tick tick,
                   const std::string &message, std::string diagnostics)
    : std::logic_error(formatWhat(kind, component, tick, message)),
      _kind(kind), _component(std::move(component)), _tick(tick),
      _diagnostics(std::move(diagnostics))
{
}

const char *
SimError::kindName(Kind kind)
{
    switch (kind) {
      case Kind::assertion: return "assertion";
      case Kind::config: return "config";
      case Kind::fault: return "fault";
      case Kind::retry_exhausted: return "retry-exhausted";
      case Kind::deadlock: return "deadlock";
      case Kind::livelock: return "livelock";
      case Kind::checkpoint: return "checkpoint";
    }
    return "unknown";
}

Tick
currentErrorTick()
{
    return current_tick;
}

void
setCurrentErrorTick(Tick tick)
{
    current_tick = tick;
}

} // namespace cedar
