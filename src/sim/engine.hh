/**
 * @file
 * The discrete-event simulation engine.
 *
 * A Simulation owns a time-ordered queue of Event objects (see
 * event.hh). Components schedule their member events at absolute
 * ticks; ties are broken first by an explicit priority and then by
 * insertion order, so runs are fully deterministic. The queue is an
 * intrusive binary heap of Event pointers, so scheduling allocates
 * nothing: every event is an object its owner keeps.
 */

#ifndef CEDARSIM_SIM_ENGINE_HH
#define CEDARSIM_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "event.hh"
#include "hostprof.hh"
#include "logging.hh"
#include "types.hh"
#include "watchdog.hh"

namespace cedar {

class CheckpointWriter;
class CheckpointReader;

/**
 * Discrete-event simulator core. One instance per simulated machine;
 * never shared across machines so experiments are isolated.
 */
class Simulation
{
  public:
    Simulation()
    {
        if (HostProfiler::envEnabled())
            setProfiling(true);
    }
    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;
    ~Simulation();

    /** Current simulated time in CE cycles. */
    Tick curTick() const { return _now; }

    /**
     * Schedule an event object at an absolute tick. The event must not
     * already be scheduled; its priority was fixed at construction.
     * Allocation-free: the event links into the queue intrusively.
     * @param ev   event to link in (must outlive its firing)
     * @param when absolute tick, must be >= curTick()
     */
    void
    schedule(Event &ev, Tick when)
    {
        sim_assert(!ev.scheduled(), "event '", ev.description(),
                   "' is already scheduled for tick ", ev._when);
        sim_assert(when >= _now, "event scheduled in the past: when=", when,
                   " now=", _now);
        ev._when = when;
        ev._seq = _next_seq++;
        ev._sim = this;
        ev._heap_index = _heap.size();
        _heap.push_back(&ev);
        siftUp(_heap.size() - 1);
    }

    /** Schedule an event object a relative number of cycles ahead. */
    void scheduleIn(Event &ev, Cycles delta) { schedule(ev, _now + delta); }

    /** Unlink a scheduled event; it will not fire. */
    void deschedule(Event &ev);

    /**
     * Move an event to a new tick (scheduling it if idle). The event
     * re-enters insertion order: it ties after anything already
     * scheduled for the same (when, priority).
     */
    void
    reschedule(Event &ev, Tick when)
    {
        if (ev.scheduled())
            deschedule(ev);
        schedule(ev, when);
    }

    /**
     * Run until the queue drains.
     * @return the tick at which execution stopped
     */
    Tick run();

    /**
     * Run until simulated time would exceed @p limit. Events past the
     * limit stay queued and the clock advances to @p limit, so repeated
     * calls compose; a limit already behind the clock leaves it where
     * it is (time never runs backwards).
     */
    Tick runUntil(Tick limit);

    /** True once the event queue is empty. */
    bool empty() const { return _heap.empty(); }

    /** Number of events currently queued. */
    std::size_t queueDepth() const { return _heap.size(); }

    /** Number of events executed so far (for performance reporting). */
    std::uint64_t eventsExecuted() const { return _events_executed; }

    /**
     * Attach a liveness watchdog (nullptr detaches). The engine
     * consults it after every event and when the queue drains; the
     * watchdog converts detected deadlock/livelock into a SimError.
     */
    void attachWatchdog(Watchdog *w) { _watchdog = w; }

    /** The attached watchdog, or nullptr. */
    Watchdog *watchdog() const { return _watchdog; }

    /** Forward a component's progress marker to the watchdog, if any. */
    void
    noteProgress()
    {
        if (_watchdog)
            _watchdog->noteProgress(_now);
    }

    /**
     * Arm (or disarm) per-event-kind host-time attribution on this
     * engine. Disarmed — the default — the dispatch loop pays one
     * null-pointer test; armed, each dispatch is bracketed by two
     * timestamp reads charged to the event's description string.
     * Never affects simulated behaviour (see sim/hostprof.hh).
     */
    void
    setProfiling(bool on)
    {
        if (on && !_profiler)
            _profiler = std::make_unique<HostProfiler>();
        else if (!on)
            _profiler.reset();
    }

    /** The attached host-time profiler, or nullptr when disarmed. */
    HostProfiler *profiler() const { return _profiler.get(); }

    /**
     * Snapshot the engine clocks (tick, sequence counter, event total)
     * into section "cedar.engine". Legal only at a quiescent point:
     * raises a `checkpoint` SimError while events are still queued,
     * because a queued event is a live object a snapshot cannot name.
     */
    void saveState(CheckpointWriter &w) const;

    /**
     * Restore the engine clocks. The queue must be empty (deschedule
     * periodic events such as the telemetry sampler first and re-arm
     * them afterwards). Restoring `next_seq` exactly is what makes a
     * resumed run's same-tick tie-breaking — and hence the whole
     * continuation — bit-identical to the uninterrupted run.
     */
    void restoreState(const CheckpointReader &r);

  private:
    friend class Event;

    /** Strict ordering: does @p a fire before @p b? */
    static bool
    before(const Event *a, const Event *b)
    {
        if (a->_when != b->_when)
            return a->_when < b->_when;
        if (a->_priority != b->_priority)
            return a->_priority < b->_priority;
        return a->_seq < b->_seq;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Remove and return the next event to fire (queue must be non-empty). */
    Event *popTop();

    /** Intrusive min-heap on (when, priority, seq). */
    std::vector<Event *> _heap;
    Tick _now = 0;
    std::uint64_t _next_seq = 0;
    std::uint64_t _events_executed = 0;
    Watchdog *_watchdog = nullptr;
    /** Per-kind host-time attribution; allocated only when armed. */
    std::unique_ptr<HostProfiler> _profiler;
};

} // namespace cedar

#endif // CEDARSIM_SIM_ENGINE_HH
