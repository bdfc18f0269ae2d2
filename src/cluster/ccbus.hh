/**
 * @file
 * The Alliant concurrency control bus.
 *
 * Every CE in a cluster connects to a dedicated bus that implements fast
 * fork, join, and synchronization for parallel loops. "Concurrent
 * start" is a single instruction that spreads the iterations of a loop
 * from one CE to all eight by broadcasting the program counter and
 * setting up private stacks — the cluster is gang-scheduled, after which
 * CEs self-schedule iterations among themselves over the bus.
 */

#ifndef CEDARSIM_CLUSTER_CCBUS_HH
#define CEDARSIM_CLUSTER_CCBUS_HH

#include <memory>
#include <vector>

#include "net/port.hh"
#include "sim/engine.hh"
#include "sim/named.hh"
#include "sim/statreg.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar::cluster {

/** Timing parameters for the concurrency control bus. */
struct CcBusParams
{
    /** Cycles for the concurrent-start broadcast (gang fork). */
    Cycles concurrent_start_cycles = 12;
    /** Bus occupancy per self-scheduled iteration grant. */
    Cycles dispatch_cycles = 2;
    /** Cycles to complete a join once the last CE arrives. */
    Cycles join_cycles = 4;
};

/** Resumed when a barrier this waiter arrived at releases. */
class BarrierWaiter
{
  public:
    virtual ~BarrierWaiter() = default;
    virtual void barrierReleased(Tick when) = 0;
};

/**
 * An intracluster barrier managed by the bus. Participants call
 * arrive(); when the last one does, every waiter resumes join_cycles
 * later. Waiters are interface pointers and the release events come
 * from a per-barrier recycled pool, so the hot CE path allocates
 * nothing once warm.
 */
class CcBarrier
{
  public:
    CcBarrier(Simulation &sim, unsigned participants, Cycles join_cycles)
        : _sim(sim), _participants(participants),
          _join_cycles(join_cycles)
    {
        sim_assert(participants > 0, "barrier needs participants");
    }

    /** Register arrival at @p now; @p w resumes when all have arrived. */
    void
    arrive(Tick now, BarrierWaiter &w)
    {
        Entry entry{&w, 0, false};
        if (Watchdog *wd = _sim.watchdog()) {
            // A blocked arrival is a liveness hazard: if the gang loses
            // a participant the queue drains with this wait pending and
            // the watchdog reports exactly who was stuck.
            entry.token = wd->beginWait(
                "CCB barrier: " + std::to_string(_waiters.size() + 1) +
                "/" + std::to_string(_participants) +
                " arrived, waiting for the rest");
            entry.has_token = true;
        }
        _waiters.push_back(entry);
        _latest = std::max(_latest, now);
        if (_waiters.size() == _participants) {
            Tick release = _latest + _join_cycles;
            // One resume event per waiter, in arrival order. Pool
            // slots recycle across episodes: an episode cannot begin
            // until the previous one's resumes have all fired.
            for (std::size_t i = 0; i < _waiters.size(); ++i) {
                if (i >= _resume_pool.size()) {
                    _resume_pool.push_back(
                        std::make_unique<ResumeEvent>());
                }
                ResumeEvent &ev = *_resume_pool[i];
                sim_assert(!ev.scheduled(),
                           "barrier resume pool overrun");
                ev._sim_ref = &_sim;
                ev._entry = _waiters[i];
                ev._release = release;
                _sim.schedule(ev, release);
            }
            _waiters.clear();
            _latest = 0;
        }
    }

    /** Number of CEs currently waiting. */
    std::size_t waiting() const { return _waiters.size(); }

    /** Gang size this barrier was created over. */
    unsigned participants() const { return _participants; }

  private:
    struct Entry
    {
        BarrierWaiter *waiter;
        unsigned token;
        bool has_token;
    };

    /** Resumes one waiter at the release tick. */
    class ResumeEvent : public Event
    {
      public:
        ResumeEvent() : Event(EventPriority::normal) {}

        void
        process() override
        {
            // A barrier release is forward progress.
            _sim_ref->noteProgress();
            if (_entry.has_token)
                _sim_ref->watchdog()->endWait(_entry.token);
            _entry.waiter->barrierReleased(_release);
        }

        const char *description() const override { return "ccb.resume"; }

        Simulation *_sim_ref = nullptr;
        Entry _entry{};
        Tick _release = 0;
    };

    Simulation &_sim;
    unsigned _participants;
    Cycles _join_cycles;
    Tick _latest = 0;
    std::vector<Entry> _waiters;
    std::vector<std::unique_ptr<ResumeEvent>> _resume_pool;
};

/** The per-cluster concurrency control bus. */
class ConcurrencyControlBus : public Named
{
  public:
    ConcurrencyControlBus(const std::string &name, Simulation &sim,
                          unsigned num_ces, const CcBusParams &params)
        : Named(name), _sim(sim), _num_ces(num_ces), _params(params)
    {
    }

    /**
     * Cost of the concurrent-start broadcast: the gang is running at
     * the returned tick.
     */
    Tick
    concurrentStart(Tick now)
    {
        _starts.inc();
        return now + _params.concurrent_start_cycles;
    }

    /**
     * Serialize an iteration-grant on the bus.
     * @return tick at which the requesting CE holds its iteration
     */
    Tick
    dispatch(Tick now)
    {
        _dispatches.inc();
        Tick start = _bus.acquire(now, 1, bus_occupancy, bus_queue_words);
        return start + _params.dispatch_cycles;
    }

    /** Create a barrier over @p participants CEs of this cluster. */
    CcBarrier
    makeBarrier(unsigned participants)
    {
        return CcBarrier(_sim, participants, _params.join_cycles);
    }

    unsigned numCes() const { return _num_ces; }
    const CcBusParams &params() const { return _params; }
    std::uint64_t startCount() const { return _starts.value(); }
    std::uint64_t dispatchCount() const { return _dispatches.value(); }

    /** Register bus statistics under the component name. */
    void
    registerStats(StatRegistry &reg)
    {
        reg.addCounter(child("starts"), _starts);
        reg.addCounter(child("dispatches"), _dispatches);
    }

    void
    saveState(CheckpointWriter &w) const
    {
        auto &sec = w.section(name());
        sec.counter("starts", _starts);
        sec.counter("dispatches", _dispatches);
        _bus.saveFields(sec, "bus", bus_occupancy);
    }

    void
    restoreState(const CheckpointReader &r)
    {
        const auto &sec = r.section(name());
        sec.counter("starts", _starts);
        sec.counter("dispatches", _dispatches);
        _bus.restoreFields(sec, "bus", bus_occupancy);
    }

  private:
    /** A grant holds the bus one cycle; waiting grants queue unbounded. */
    static constexpr Cycles bus_occupancy = 1;
    static constexpr unsigned bus_queue_words = 0;

    Simulation &_sim;
    unsigned _num_ces;
    CcBusParams _params;
    net::LinkPort _bus;
    Counter _starts;
    Counter _dispatches;
};

} // namespace cedar::cluster

#endif // CEDARSIM_CLUSTER_CCBUS_HH
