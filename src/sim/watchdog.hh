/**
 * @file
 * Liveness watchdog for the simulation engine.
 *
 * Two hang modes exist in an event-driven machine model:
 *
 *  - Deadlock: a component is waiting for a wakeup that will never be
 *    scheduled (a barrier short of participants, a join that lost a
 *    CE). The event queue drains while the wait state is non-empty and
 *    run() returns with the machine silently stuck.
 *  - Livelock: events keep executing but nothing ever progresses (a
 *    spin lock whose holder died keeps generating poll traffic
 *    forever). The event loop never returns at all.
 *
 * The watchdog turns both into a typed SimError carrying a diagnostic
 * bundle instead of a hang. Components register wait markers while
 * they are blocked on an external wakeup (beginWait/endWait) and mark
 * forward progress (noteProgress) whenever real work completes — an
 * iteration taken, a barrier released, a stream finished. The engine
 * then consults the watchdog after every event (livelock: no progress
 * marker across `livelock_window` ticks) and when its queue drains
 * (deadlock: wait markers outstanding with nothing left to run).
 *
 * The watchdog never schedules events of its own, so an armed watchdog
 * does not keep an otherwise-finished simulation alive.
 */

#ifndef CEDARSIM_SIM_WATCHDOG_HH
#define CEDARSIM_SIM_WATCHDOG_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/error.hh"
#include "sim/named.hh"
#include "sim/statreg.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar {

class CheckpointWriter;
class CheckpointReader;

/** Tuning knobs for the liveness watchdog. */
struct WatchdogParams
{
    /** Master switch; disabled watchdogs never raise. */
    bool enabled = true;
    /** Ticks without a forward-progress marker before livelock fires.
     *  Generous by default: 50M ticks is 8.5 simulated seconds, three
     *  orders of magnitude above any legitimate gap in the workloads. */
    Tick livelock_window = 50'000'000;
    /** Events between livelock checks (checks are O(1) but there is no
     *  reason to compare on every event). */
    std::uint64_t check_every_events = 4096;
};

/** Deadlock/livelock detector attachable to one Simulation. */
class Watchdog : public Named
{
  public:
    explicit Watchdog(const std::string &name,
                      const WatchdogParams &params = WatchdogParams{});

    const WatchdogParams &params() const { return _params; }

    /**
     * Provider of the diagnostic bundle attached to raised errors
     * (typically the machine's stat snapshot and in-flight listing).
     */
    void
    setDiagnostics(std::function<std::string()> fn)
    {
        _diagnostics = std::move(fn);
    }

    /** Record a forward-progress marker at @p now. */
    void
    noteProgress(Tick now)
    {
        _last_progress = now;
        _progress_marks.inc();
    }

    /**
     * Register a blocked component waiting for an external wakeup.
     * @param what description shown in deadlock reports
     * @return token to pass to endWait() on wakeup
     */
    unsigned beginWait(std::string what);

    /** Clear the wait registered under @p token. */
    void endWait(unsigned token);

    /** Number of components currently blocked. */
    std::size_t pendingWaits() const { return _waits.size(); }

    /** Descriptions of every outstanding wait. */
    std::vector<std::string> waitDescriptions() const;

    /** Engine hook: a run is starting at @p now. */
    void onRunStart(Tick now);

    /**
     * Engine hook: one event just executed at @p now. Raises a
     * SimError of kind `livelock` when no progress marker has been
     * recorded for more than livelock_window ticks.
     */
    void onEvent(Tick now);

    /**
     * Engine hook: the event queue drained at @p now. Raises a
     * SimError of kind `deadlock` when wait markers are outstanding.
     */
    void onDrain(Tick now);

    std::uint64_t progressMarks() const { return _progress_marks.value(); }

    void registerStats(StatRegistry &reg);

    /**
     * Progress clock, token counter, and counters. Requires no
     * outstanding waits (a quiescent machine has none — outstanding
     * waits at a drained queue are a deadlock, not a checkpoint).
     */
    void saveState(CheckpointWriter &w) const;
    void restoreState(const CheckpointReader &r);

  private:
    [[noreturn]] void raise(SimError::Kind kind, Tick now,
                            const std::string &message);

    WatchdogParams _params;
    std::function<std::string()> _diagnostics;
    Tick _last_progress = 0;
    std::uint64_t _events_since_check = 0;
    unsigned _next_token = 0;
    std::map<unsigned, std::string> _waits;
    Counter _progress_marks;
    Counter _waits_begun;
};

} // namespace cedar

#endif // CEDARSIM_SIM_WATCHDOG_HH
