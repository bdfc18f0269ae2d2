/**
 * @file
 * Conservative parallel discrete-event engine (intra-run PDES).
 *
 * An EngineCoordinator windows a set of Simulation partitions (logical
 * processes) forward together. Each partition owns its ordinary serial
 * event queue; cross-partition communication happens ONLY through
 * declared channels, each with a fixed id and a minimum latency. The
 * smallest channel latency is the machine's lookahead L: when the
 * earliest queued event anywhere sits at tick T, every partition may
 * execute all of its events with tick < T + L in parallel, because no
 * message generated during the window can arrive before T + L (the
 * classic conservative-synchronization argument; the Cedar machine's
 * multi-stage omega networks give L >= the port-to-port minimum
 * latency for free).
 *
 * Determinism contract — the whole point of this engine:
 *
 *  1. Window boundaries depend only on queue contents and channel
 *     latencies, never on thread count or host scheduling.
 *  2. Within a window, partitions share no mutable state; each runs
 *     its own (when, priority, seq) serial order.
 *  3. A message is an Event the sender owns. Messages buffer in
 *     per-channel outboxes (single writer: the sending partition)
 *     stamped with a per-channel send sequence. At each barrier they
 *     are scheduled on their destinations in sorted
 *     (arrival, event priority, channel id, channel seq) order, so the
 *     destination queue's insertion order — and hence its same-tick
 *     tie-breaking — is identical at any thread count.
 *
 * Results are therefore bit-identical for any `threads` value,
 * including 1 (which runs the same window protocol sequentially);
 * tests/test_pdes.cc fuzzes this, and the machine-level reports,
 * golden cells, telemetry, and checkpoints are pinned byte-identical
 * across thread counts by tests/test_valid.cc and test_checkpoint.cc.
 *
 * A message presented below its channel's declared latency is a
 * protocol violation and raises a typed SimError of kind `lookahead` —
 * never a silent reordering.
 *
 * Fast path: while exactly one partition has queued events and no
 * message is in flight, that partition's queue is drained by the
 * unmodified serial loop with no window bookkeeping at all. A machine
 * whose event population lives on one partition (today: every paper
 * kernel) therefore executes exactly as the serial engine does, at
 * serial-engine speed. The first cross-partition send breaks the run
 * out of the fast path and resumes windowing conservatively.
 *
 * Watchdog note: the coordinator suppresses the per-partition drained-
 * queue hook and raises it once, per attached watchdog, when every
 * partition has drained — a partition idling mid-window is not a
 * deadlock. Livelock checks still run inside each partition's window.
 */

#ifndef CEDARSIM_SIM_PDES_HH
#define CEDARSIM_SIM_PDES_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/engine.hh"
#include "sim/named.hh"
#include "sim/types.hh"

namespace cedar {

/** One declared cross-partition event channel. */
struct PdesChannel
{
    unsigned src;
    unsigned dst;
    /** Declared minimum send-to-arrival latency (>= 1). */
    Tick min_latency;
    std::string name;
};

/**
 * Coordinates N Simulation partitions through conservative lookahead
 * windows. Construction wires partitions and channels; run()/runUntil()
 * execute. A partition attached with attachPartition() (e.g. a
 * CedarMachine's own engine) delegates its run()/runUntil() here, so
 * existing drivers work unchanged.
 */
class EngineCoordinator : public Named
{
  public:
    /**
     * @param name    component name (error messages, diagnostics)
     * @param threads worker threads for window execution; 1 runs the
     *                identical protocol sequentially
     */
    EngineCoordinator(const std::string &name, unsigned threads);

    EngineCoordinator(const EngineCoordinator &) = delete;
    EngineCoordinator &operator=(const EngineCoordinator &) = delete;
    ~EngineCoordinator();

    /** Create a coordinator-owned partition. @return partition id */
    unsigned addPartition(const std::string &pname);

    /**
     * Attach an externally owned engine as a partition. Its
     * run()/runUntil() delegate here until this coordinator dies.
     * @return partition id
     */
    unsigned attachPartition(Simulation &sim, const std::string &pname);

    Simulation &partition(unsigned id) { return *_parts.at(id).sim; }
    unsigned numPartitions() const { return unsigned(_parts.size()); }
    const std::string &partitionName(unsigned id) const
    {
        return _parts.at(id).name;
    }

    /**
     * Declare a cross-partition channel. Channel ids are assigned in
     * declaration order and are part of the determinism contract (the
     * merge rule sorts on them), so declare channels in a fixed order.
     * @param min_latency conservative lower bound on send-to-arrival
     *                    distance, in ticks; must be >= 1
     * @return channel id
     */
    unsigned addChannel(unsigned src, unsigned dst, Tick min_latency,
                        const std::string &cname = "");

    const PdesChannel &channel(unsigned id) const
    {
        return _channels.at(id);
    }
    unsigned numChannels() const { return unsigned(_channels.size()); }

    /** The global lookahead: min channel latency (max_tick if none). */
    Tick lookahead() const { return _lookahead; }

    unsigned threads() const { return _threads; }

    /**
     * Send a cross-partition message: @p ev fires on the destination
     * partition at tick @p arrival, ordered by its own priority with
     * ordinary engine tie-breaking. The sender owns @p ev and keeps it
     * alive until it has fired; it must not be queued when sent. Must
     * be called from the source partition (its executing event, or
     * between runs). Raises a `lookahead` SimError when @p arrival is
     * closer than the channel's declared latency to the source
     * partition's current tick.
     */
    void send(unsigned channel_id, Event &ev, Tick arrival);

    /**
     * Test hook: bypass the sender-side latency check. The delivery-
     * side check at the next barrier must still catch a violating
     * arrival — tests/test_pdes.cc injects violations through this.
     */
    void sendUnchecked(unsigned channel_id, Event &ev, Tick arrival);

    /** Run until every partition drains or a stop is requested. */
    Tick run() { return runUntil(max_tick); }

    /** Run until simulated time would exceed @p limit anywhere. */
    Tick runUntil(Tick limit);

    /** Stop the coordinated run after the current window. */
    void requestStop() { _stop.store(true, std::memory_order_relaxed); }

    /** True when every queue is empty and no message is in flight. */
    bool quiescent() const;

    /** Events executed across every partition. */
    std::uint64_t eventsExecuted() const;

    /** Conservative windows executed (excludes fast-path runs). */
    std::uint64_t windows() const { return _windows; }

    /** Solo fast-path runs taken (serial-loop drains). */
    std::uint64_t soloRuns() const { return _solo_runs; }

    std::uint64_t messagesSent() const { return _messages_sent; }
    std::uint64_t messagesDelivered() const
    {
        return _messages_delivered;
    }

  private:
    struct Partition
    {
        Simulation *sim;
        std::string name;
        bool owned;
        std::exception_ptr error;
    };

    /** One buffered cross-partition message. */
    struct Pending
    {
        Tick arrival;
        int prio;
        unsigned channel;
        std::uint64_t seq;
        Event *ev;
    };

    void stage(unsigned channel_id, Event &ev, Tick arrival,
               bool checked);
    void deliverPending();
    bool outboxesEmpty() const;
    /** Execute one window: every runnable partition up to @p horizon. */
    void runWindow(Tick horizon,
                   const std::vector<unsigned> &runnable);
    void workOnWindow();
    void workerLoop();
    void rethrowPartitionError();
    Tick maxNow() const;

    unsigned _threads;
    std::vector<Partition> _parts;
    std::vector<std::unique_ptr<Simulation>> _owned;
    std::vector<PdesChannel> _channels;
    /** Per-channel outbox + send-sequence counter (single writer:
     *  the channel's source partition). */
    std::vector<std::vector<Pending>> _outbox;
    std::vector<std::uint64_t> _send_seq;
    Tick _lookahead = max_tick;

    bool _running = false;
    std::atomic<bool> _stop{false};
    /** Partition currently draining on the solo fast path (-1: none);
     *  only touched from the coordinator thread. */
    int _solo_active = -1;

    std::uint64_t _windows = 0;
    std::uint64_t _solo_runs = 0;
    std::uint64_t _messages_sent = 0;
    std::uint64_t _messages_delivered = 0;

    /** Window-execution pool (size threads - 1; empty when threads
     *  <= 1, in which case windows run inline on the caller). */
    std::vector<std::thread> _workers;
    std::mutex _mx;
    std::condition_variable _cv_work;
    std::condition_variable _cv_done;
    std::uint64_t _generation = 0;
    unsigned _active_workers = 0;
    bool _shutdown = false;
    /** Current window's work list, consumed via an atomic cursor. */
    const std::vector<unsigned> *_window_runnable = nullptr;
    Tick _window_horizon = 0;
    std::atomic<unsigned> _window_cursor{0};
};

} // namespace cedar

#endif // CEDARSIM_SIM_PDES_HH
