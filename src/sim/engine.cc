/**
 * @file
 * Event loop and intrusive heap maintenance.
 */

#include "engine.hh"

#include "checkpoint.hh"
#include "error.hh"

namespace cedar {

Event::~Event()
{
    // A component being torn down may still have its events queued;
    // unlink them so the engine never touches freed memory. The
    // simulation outlives its components in every machine, so _sim is
    // valid here.
    if (scheduled())
        _sim->deschedule(*this);
}

Simulation::~Simulation()
{
    // Unlink anything still queued so Event destructors running after
    // this (component events destroyed later) see a consistent heap.
    while (!_heap.empty())
        popTop();
    if (_profiler)
        _profiler->flushGlobal();
}

void
Simulation::siftUp(std::size_t i)
{
    Event *ev = _heap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!before(ev, _heap[parent]))
            break;
        _heap[i] = _heap[parent];
        _heap[i]->_heap_index = i;
        i = parent;
    }
    _heap[i] = ev;
    ev->_heap_index = i;
}

void
Simulation::siftDown(std::size_t i)
{
    Event *ev = _heap[i];
    const std::size_t n = _heap.size();
    while (true) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(_heap[child + 1], _heap[child]))
            ++child;
        if (!before(_heap[child], ev))
            break;
        _heap[i] = _heap[child];
        _heap[i]->_heap_index = i;
        i = child;
    }
    _heap[i] = ev;
    ev->_heap_index = i;
}

Event *
Simulation::popTop()
{
    Event *ev = _heap.front();
    Event *last = _heap.back();
    _heap.pop_back();
    ev->_heap_index = Event::unscheduled_index;
    ev->_sim = nullptr;
    if (!_heap.empty()) {
        _heap[0] = last;
        last->_heap_index = 0;
        siftDown(0);
    }
    return ev;
}

void
Simulation::deschedule(Event &ev)
{
    sim_assert(ev.scheduled(), "descheduling idle event '",
               ev.description(), "'");
    sim_assert(ev._sim == this, "event '", ev.description(),
               "' is scheduled on a different simulation");
    std::size_t i = ev._heap_index;
    Event *last = _heap.back();
    _heap.pop_back();
    ev._heap_index = Event::unscheduled_index;
    ev._sim = nullptr;
    if (last != &ev) {
        _heap[i] = last;
        last->_heap_index = i;
        // The replacement may need to move either direction.
        siftDown(i);
        siftUp(i);
    }
}

Tick
Simulation::run()
{
    return runUntil(max_tick);
}

void
Simulation::saveState(CheckpointWriter &w) const
{
    if (!_heap.empty()) {
        checkpointError("cedar.engine",
                        "cannot snapshot with " +
                            std::to_string(_heap.size()) +
                            " events still queued; checkpoints are "
                            "legal only at quiescent points");
    }
    auto &sec = w.section("cedar.engine");
    sec.u64("now", _now);
    sec.u64("next_seq", _next_seq);
    sec.u64("events_executed", _events_executed);
}

void
Simulation::restoreState(const CheckpointReader &r)
{
    if (!_heap.empty()) {
        checkpointError("cedar.engine",
                        "cannot restore into an engine with " +
                            std::to_string(_heap.size()) +
                            " events queued; deschedule periodic "
                            "events first and re-arm them after");
    }
    const auto &sec = r.section("cedar.engine");
    _now = sec.u64("now");
    _next_seq = sec.u64("next_seq");
    _events_executed = sec.u64("events_executed");
}

Tick
Simulation::runUntil(Tick limit)
{
    if (_watchdog)
        _watchdog->onRunStart(_now);
    while (!_heap.empty()) {
        if (_heap.front()->_when > limit) {
            // Leave future events queued; advance time to the horizon so
            // repeated runUntil() calls compose naturally. A horizon
            // behind the clock leaves it alone: rewinding would let
            // schedule() accept ticks in the past.
            if (_now < limit)
                _now = limit;
            return _now;
        }
        Event *ev = popTop();
        _now = ev->_when;
        setCurrentErrorTick(_now);
        ++_events_executed;
        if (_profiler) {
            // Latch the kind before dispatch: process() may hand the
            // event back to an owner that reuses or frees it.
            const char *kind = ev->description();
            std::uint64_t t0 = hostprofNow();
            ev->process();
            _profiler->note(kind, hostprofNow() - t0);
        } else {
            ev->process();
        }
        if (_watchdog)
            _watchdog->onEvent(_now);
    }
    if (_watchdog)
        _watchdog->onDrain(_now);
    return _now;
}

} // namespace cedar
