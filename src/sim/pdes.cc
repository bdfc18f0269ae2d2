/**
 * @file
 * Conservative window protocol, deterministic channel merge, and the
 * window-execution worker pool. See pdes.hh for the determinism
 * contract this file implements.
 */

#include "pdes.hh"

#include <algorithm>
#include <utility>

#include "error.hh"
#include "logging.hh"

namespace cedar {

namespace {

/** Saturating tick addition (lookahead may be max_tick). */
Tick
satAdd(Tick a, Tick b)
{
    return (b > max_tick - a) ? max_tick : a + b;
}

[[noreturn]] void
raiseLookahead(const std::string &component, Tick tick,
               const std::string &message)
{
    if (abortOnError())
        std::abort();
    throw SimError(SimError::Kind::lookahead, component, tick, message);
}

} // namespace

EngineCoordinator::EngineCoordinator(const std::string &name,
                                     unsigned threads)
    : Named(name), _threads(threads == 0 ? 1 : threads)
{
    for (unsigned i = 1; i < _threads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

EngineCoordinator::~EngineCoordinator()
{
    {
        std::lock_guard<std::mutex> lk(_mx);
        _shutdown = true;
    }
    _cv_work.notify_all();
    for (auto &w : _workers)
        w.join();
    // Detach every partition before the owned engines die so an
    // externally owned engine (a machine's) never delegates to a
    // destroyed coordinator.
    for (auto &p : _parts)
        p.sim->attachCoordinator(nullptr, 0);
}

unsigned
EngineCoordinator::addPartition(const std::string &pname)
{
    _owned.emplace_back(std::make_unique<Simulation>());
    return attachPartition(*_owned.back(), pname);
}

unsigned
EngineCoordinator::attachPartition(Simulation &sim, const std::string &pname)
{
    sim_assert(!_running, "partition '", pname,
               "' added during a coordinated run");
    sim_assert(sim.coordinator() == nullptr, "engine '", pname,
               "' is already attached to a coordinator");
    unsigned id = unsigned(_parts.size());
    _parts.push_back(Partition{&sim, pname,
                               !_owned.empty() &&
                                   _owned.back().get() == &sim,
                               nullptr});
    sim.attachCoordinator(this, id);
    return id;
}

unsigned
EngineCoordinator::addChannel(unsigned src, unsigned dst, Tick min_latency,
                              const std::string &cname)
{
    sim_assert(!_running, "channel added during a coordinated run");
    if (src >= _parts.size() || dst >= _parts.size()) {
        throw SimError(SimError::Kind::config, name(), currentErrorTick(),
                       "channel endpoints " + std::to_string(src) + "->" +
                           std::to_string(dst) +
                           " out of range (partitions: " +
                           std::to_string(_parts.size()) + ")");
    }
    if (src == dst) {
        throw SimError(SimError::Kind::config, name(), currentErrorTick(),
                       "channel " + std::to_string(src) + "->" +
                           std::to_string(dst) +
                           " loops back to its own partition; use "
                           "ordinary scheduling inside a partition");
    }
    if (min_latency == 0) {
        throw SimError(SimError::Kind::config, name(), currentErrorTick(),
                       "channel " + _parts[src].name + "->" +
                           _parts[dst].name +
                           " declares zero minimum latency; conservative "
                           "synchronization needs lookahead >= 1");
    }
    unsigned id = unsigned(_channels.size());
    std::string n = cname.empty()
                        ? _parts[src].name + "->" + _parts[dst].name
                        : cname;
    _channels.push_back(PdesChannel{src, dst, min_latency, std::move(n)});
    _outbox.emplace_back();
    _send_seq.push_back(0);
    _lookahead = std::min(_lookahead, min_latency);
    return id;
}

void
EngineCoordinator::send(unsigned channel_id, Event &ev, Tick arrival)
{
    stage(channel_id, ev, arrival, true);
}

void
EngineCoordinator::sendUnchecked(unsigned channel_id, Event &ev,
                                 Tick arrival)
{
    stage(channel_id, ev, arrival, false);
}

void
EngineCoordinator::stage(unsigned channel_id, Event &ev, Tick arrival,
                         bool checked)
{
    sim_assert(channel_id < _channels.size(), "send on unknown channel #",
               channel_id);
    const PdesChannel &ch = _channels[channel_id];
    sim_assert(!ev.scheduled(), "message event '", ev.description(),
               "' sent on channel '", ch.name, "' while still queued");
    Simulation &src = *_parts[ch.src].sim;
    if (checked) {
        Tick earliest = satAdd(src.curTick(), ch.min_latency);
        if (arrival < earliest) {
            raiseLookahead(
                name(), src.curTick(),
                "channel '" + ch.name + "' message for tick " +
                    std::to_string(arrival) +
                    " violates its declared minimum latency of " +
                    std::to_string(ch.min_latency) +
                    " (earliest legal arrival: " +
                    std::to_string(earliest) + ")");
        }
    }
    _outbox[channel_id].push_back(Pending{arrival, ev.priority(),
                                          channel_id,
                                          _send_seq[channel_id]++, &ev});
    // A send invalidates the solo fast path: the destination may now
    // answer back into the sender's near future. Stop the solo drain
    // after the current event; the coordinator loop resumes windowed.
    if (_solo_active == int(ch.src))
        src.stopLocal();
}

bool
EngineCoordinator::outboxesEmpty() const
{
    for (const auto &box : _outbox)
        if (!box.empty())
            return false;
    return true;
}

void
EngineCoordinator::deliverPending()
{
    // Gather every buffered message and deliver in the canonical
    // (arrival, priority, channel id, send seq) order. Destination
    // schedule() assigns insertion sequence in this order, so same-tick
    // tie-breaking downstream is independent of which thread ran the
    // sender and of how sends interleaved across channels.
    std::vector<Pending> batch;
    for (auto &box : _outbox) {
        std::move(box.begin(), box.end(), std::back_inserter(batch));
        box.clear();
    }
    if (batch.empty())
        return;
    std::sort(batch.begin(), batch.end(),
              [](const Pending &a, const Pending &b) {
                  if (a.arrival != b.arrival)
                      return a.arrival < b.arrival;
                  if (a.prio != b.prio)
                      return a.prio < b.prio;
                  if (a.channel != b.channel)
                      return a.channel < b.channel;
                  return a.seq < b.seq;
              });
    for (auto &m : batch) {
        const PdesChannel &ch = _channels[m.channel];
        Simulation &dst = *_parts[ch.dst].sim;
        if (m.arrival < dst.curTick()) {
            raiseLookahead(
                name(), dst.curTick(),
                "channel '" + ch.name + "' delivered a message for past "
                "tick " + std::to_string(m.arrival) +
                    " (destination already at tick " +
                    std::to_string(dst.curTick()) +
                    "); a sender bypassed the latency contract");
        }
        dst.schedule(*m.ev, m.arrival);
        ++_messages_delivered;
    }
    _messages_sent += batch.size();
}

void
EngineCoordinator::workOnWindow()
{
    for (;;) {
        unsigned i = _window_cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= _window_runnable->size())
            return;
        Partition &p = _parts[(*_window_runnable)[i]];
        try {
            p.sim->runLocal(_window_horizon, /*drain_hook=*/false);
        } catch (...) {
            p.error = std::current_exception();
        }
    }
}

void
EngineCoordinator::workerLoop()
{
    std::unique_lock<std::mutex> lk(_mx);
    std::uint64_t seen = 0;
    for (;;) {
        _cv_work.wait(lk, [&] { return _shutdown || _generation != seen; });
        if (_shutdown)
            return;
        seen = _generation;
        lk.unlock();
        workOnWindow();
        lk.lock();
        if (--_active_workers == 0)
            _cv_done.notify_all();
    }
}

void
EngineCoordinator::rethrowPartitionError()
{
    // Deterministic propagation: the lowest-index failing partition
    // wins, independent of which worker hit its exception first.
    for (auto &p : _parts) {
        if (p.error) {
            std::exception_ptr e = p.error;
            for (auto &q : _parts)
                q.error = nullptr;
            std::rethrow_exception(e);
        }
    }
}

void
EngineCoordinator::runWindow(Tick horizon,
                             const std::vector<unsigned> &runnable)
{
    _window_horizon = horizon;
    _window_runnable = &runnable;
    _window_cursor.store(0, std::memory_order_relaxed);
    if (_workers.empty() || runnable.size() <= 1) {
        // Sequential window: identical protocol, no handoff cost.
        workOnWindow();
    } else {
        {
            std::lock_guard<std::mutex> lk(_mx);
            ++_generation;
            _active_workers = unsigned(_workers.size());
        }
        _cv_work.notify_all();
        workOnWindow();
        std::unique_lock<std::mutex> lk(_mx);
        _cv_done.wait(lk, [&] { return _active_workers == 0; });
    }
    _window_runnable = nullptr;
    rethrowPartitionError();
}

Tick
EngineCoordinator::runUntil(Tick limit)
{
    sim_assert(!_running, "re-entrant coordinated run on '", name(), "'");
    _running = true;
    _stop.store(false, std::memory_order_relaxed);
    struct RunningGuard
    {
        bool &flag;
        ~RunningGuard() { flag = false; }
    } guard{_running};

    std::vector<unsigned> runnable;
    bool drained = false;
    while (!_stop.load(std::memory_order_relaxed)) {
        deliverPending();

        Tick t_min = max_tick;
        unsigned nonempty = 0;
        unsigned solo = 0;
        for (unsigned i = 0; i < _parts.size(); ++i) {
            Tick h = _parts[i].sim->headWhen();
            if (h == max_tick)
                continue;
            ++nonempty;
            solo = i;
            t_min = std::min(t_min, h);
        }

        if (nonempty == 0) {
            drained = true;
            break;
        }
        if (t_min > limit) {
            // Next event everywhere is beyond the horizon: advance every
            // partition with queued work to the horizon, exactly as the
            // serial engine leaves _now = limit with the event queued.
            for (auto &p : _parts) {
                if (!p.sim->empty() && p.sim->curTick() < limit)
                    p.sim->_now = limit;
            }
            break;
        }

        if (nonempty == 1 && outboxesEmpty()) {
            // Solo fast path: only one partition has work and nothing is
            // in flight, so its serial order IS the global order. Run
            // the unmodified serial loop; the first cross-partition send
            // breaks it (see stage()) and we fall back to windows.
            ++_solo_runs;
            _solo_active = int(solo);
            try {
                _parts[solo].sim->runLocal(limit, /*drain_hook=*/false);
            } catch (...) {
                _solo_active = -1;
                throw;
            }
            _solo_active = -1;
            continue;
        }

        // Conservative window: nothing generated during the window can
        // arrive before t_min + lookahead, so every event strictly
        // below that bound is safe to execute in parallel.
        Tick bound = std::min(satAdd(t_min, _lookahead),
                              satAdd(limit, 1));
        runnable.clear();
        for (unsigned i = 0; i < _parts.size(); ++i) {
            if (_parts[i].sim->headWhen() < bound)
                runnable.push_back(i);
        }
        runWindow(bound - 1, runnable);
        ++_windows;
    }

    if (drained && !_stop.load(std::memory_order_relaxed)) {
        // Global drain: now — and only now — a partition still waiting
        // on something is deadlocked. Raise each attached watchdog's
        // drained-queue check at its own partition's final tick.
        for (auto &p : _parts) {
            if (p.sim->watchdog())
                p.sim->watchdog()->onDrain(p.sim->curTick());
        }
    }
    return maxNow();
}

bool
EngineCoordinator::quiescent() const
{
    for (const auto &p : _parts)
        if (!p.sim->empty())
            return false;
    return outboxesEmpty();
}

std::uint64_t
EngineCoordinator::eventsExecuted() const
{
    std::uint64_t total = 0;
    for (const auto &p : _parts)
        total += p.sim->eventsExecuted();
    return total;
}

Tick
EngineCoordinator::maxNow() const
{
    Tick t = 0;
    for (const auto &p : _parts)
        t = std::max(t, p.sim->curTick());
    return t;
}

} // namespace cedar
