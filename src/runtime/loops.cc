/**
 * @file
 * Loop runtime implementation: stream construction for the three DOALL
 * flavors and the self-scheduling protocols.
 *
 * Launch state lives in pooled context objects whose gang-start,
 * per-CE-done, and SDOALL pump/dispatch steps are event objects and
 * interface calls — once the pools are warm, driving a loop schedules
 * nothing on the heap.
 */

#include "loops.hh"

#include <algorithm>

#include "mem/syncops.hh"
#include "sim/error.hh"
#include "sim/logging.hh"

namespace cedar::runtime {

namespace {

/**
 * Bounded exponential backoff: the @p attempt'th consecutive failure
 * (0-based) waits base << attempt cycles, capped at @p max.
 */
Cycles
backoffCycles(const RuntimeParams &params, unsigned attempt)
{
    unsigned shift = std::min(attempt, 16u);
    return std::min<Cycles>(params.lock_backoff << shift,
                            params.lock_backoff_max);
}

/**
 * Per-CE stream of a self-scheduled XDOALL. Iterations are fetched
 * from a counter cell in global memory, either with one Cedar
 * Fetch-And-Add or with a Test-And-Set lock protocol (four global
 * round trips) when Cedar synchronization is disabled.
 *
 * Degraded-mode behavior: a synchronization-processor timeout reissues
 * the same instruction after a bounded exponential backoff (the op was
 * not performed, so reissue is safe); a CE drop-out at an iteration
 * fetch ends this stream early and the shared counter hands the
 * remaining iterations to the survivors.
 */
class XdoallStream : public OpStream
{
  public:
    struct Shared
    {
        Addr counter;
        Addr lock;
        unsigned n_iters;
        /** CEs still in the gang (drop-out never takes the last). */
        unsigned alive;
    };

    XdoallStream(machine::CedarMachine *machine, Shared *shared,
                 unsigned global_ce, const IterationBody *body,
                 const RuntimeParams *params)
        : _machine(machine), _shared(shared), _ce(global_ce),
          _body(body), _params(params)
    {
    }

    bool
    next(Op &op) override
    {
        if (!_queue.empty()) {
            op = _queue.front();
            _queue.pop_front();
            return true;
        }
        switch (_phase) {
          case Phase::fetch:
            if (maybeDropOut())
                return false;
            if (_params->use_cedar_sync) {
                op = Op::makeScalar(_params->xdoall_fetch_software);
                _queue.push_back(Op::makeSync(
                    _shared->counter, mem::SyncOp::fetchAndAdd(1)));
                _phase = Phase::await_fetch;
            } else {
                op = Op::makeScalar(_params->xdoall_fetch_software);
                _queue.push_back(Op::makeSync(_shared->lock,
                                              mem::SyncOp::testAndSet()));
                _phase = Phase::await_lock;
            }
            return true;
          case Phase::finished:
            return false;
          default:
            panic("XdoallStream::next() in a sync-await phase");
        }
    }

    void
    syncResult(const mem::SyncResult &res) override
    {
        if (res.timed_out) {
            // The sync processor gave up before performing the op, so
            // reissuing it cannot double-apply. Back off and retry.
            retryAfterTimeout();
            return;
        }
        _timeouts = 0;
        switch (_phase) {
          case Phase::await_fetch:
            takeIteration(static_cast<unsigned>(res.old_value));
            return;
          case Phase::await_lock:
            if (!res.success) {
                // Lock held: back off exponentially and retry, up to
                // the budget (a dead lock holder must not hang us).
                if (++_lock_attempts > _params->lock_retry_limit) {
                    throw SimError(
                        SimError::Kind::retry_exhausted,
                        "cedar.runtime",
                        _machine->sim().curTick(),
                        "CE " + std::to_string(_ce) + " failed " +
                            std::to_string(_lock_attempts - 1) +
                            " consecutive Test-And-Set attempts on the "
                            "iteration lock",
                        _machine->diagnosticBundle());
                }
                _machine->runtimeStats().lock_retries.inc();
                _queue.push_back(Op::makeScalar(
                    backoffCycles(*_params, _lock_attempts - 1)));
                _queue.push_back(Op::makeSync(_shared->lock,
                                              mem::SyncOp::testAndSet()));
                return;
            }
            _lock_attempts = 0;
            _queue.push_back(Op::makeSync(
                _shared->counter,
                mem::SyncOp{mem::SyncTest::always, 0,
                            mem::SyncOperate::read, 0}));
            _phase = Phase::await_read;
            return;
          case Phase::await_read: {
            _pending_iter = static_cast<unsigned>(res.old_value);
            _queue.push_back(Op::makeSync(
                _shared->counter,
                mem::SyncOp{mem::SyncTest::always, 0,
                            mem::SyncOperate::write,
                            static_cast<std::int32_t>(_pending_iter + 1)}));
            _phase = Phase::await_write;
            return;
          }
          case Phase::await_write:
            _queue.push_back(Op::makeSync(
                _shared->lock, mem::SyncOp{mem::SyncTest::always, 0,
                                           mem::SyncOperate::write, 0}));
            _phase = Phase::await_unlock;
            return;
          case Phase::await_unlock:
            takeIteration(_pending_iter);
            return;
          default:
            panic("unexpected sync result in XdoallStream");
        }
    }

  private:
    enum class Phase
    {
        fetch,
        await_fetch,
        await_lock,
        await_read,
        await_write,
        await_unlock,
        finished,
    };

    /** Roll for drop-out at an iteration fetch (degraded mode). */
    bool
    maybeDropOut()
    {
        FaultInjector *f = _machine->faults();
        if (!f || _shared->alive <= 1 || !f->ceDropout())
            return false;
        --_shared->alive;
        _machine->runtimeStats().dropped_ces.inc();
        _phase = Phase::finished;
        return true;
    }

    /** Reissue the instruction the sync processor timed out on. */
    void
    retryAfterTimeout()
    {
        if (++_timeouts > _params->sync_retry_limit) {
            throw SimError(
                SimError::Kind::retry_exhausted, "cedar.runtime",
                _machine->sim().curTick(),
                "CE " + std::to_string(_ce) + " saw " +
                    std::to_string(_timeouts - 1) +
                    " consecutive sync-processor timeouts",
                _machine->diagnosticBundle());
        }
        _machine->runtimeStats().sync_retries.inc();
        _queue.push_back(
            Op::makeScalar(backoffCycles(*_params, _timeouts - 1)));
        _queue.push_back(pendingSyncOp());
        // Phase is unchanged: the reissued op's result lands here again.
    }

    /** The sync op outstanding in the current await phase. */
    Op
    pendingSyncOp() const
    {
        switch (_phase) {
          case Phase::await_fetch:
            return Op::makeSync(_shared->counter,
                                mem::SyncOp::fetchAndAdd(1));
          case Phase::await_lock:
            return Op::makeSync(_shared->lock,
                                mem::SyncOp::testAndSet());
          case Phase::await_read:
            return Op::makeSync(
                _shared->counter,
                mem::SyncOp{mem::SyncTest::always, 0,
                            mem::SyncOperate::read, 0});
          case Phase::await_write:
            return Op::makeSync(
                _shared->counter,
                mem::SyncOp{mem::SyncTest::always, 0,
                            mem::SyncOperate::write,
                            static_cast<std::int32_t>(_pending_iter + 1)});
          case Phase::await_unlock:
            return Op::makeSync(
                _shared->lock,
                mem::SyncOp{mem::SyncTest::always, 0,
                            mem::SyncOperate::write, 0});
          default:
            panic("sync timeout outside an await phase");
        }
    }

    void
    takeIteration(unsigned iter)
    {
        if (iter < _shared->n_iters) {
            _queue.push_back(Op::makeScalar(_params->body_call_overhead));
            (*_body)(iter, _ce, _queue);
            _phase = Phase::fetch;
            _machine->sim().noteProgress();
        } else {
            _phase = Phase::finished;
        }
    }

    machine::CedarMachine *_machine;
    Shared *_shared;
    unsigned _ce;
    const IterationBody *_body;
    const RuntimeParams *_params;
    std::deque<Op> _queue;
    Phase _phase = Phase::fetch;
    unsigned _pending_iter = 0;
    unsigned _lock_attempts = 0;
    unsigned _timeouts = 0;
};

} // namespace

/**
 * Shared launch state for a CDOALL/XDOALL gang. The context is the
 * CeDoneListener of every CE it starts; its start_event member is the
 * one event a launch schedules. Contexts are pooled by the runner and
 * recycled at join, so repeated launches reuse the same objects.
 */
struct LoopRunner::LoopContext : public cluster::CeDoneListener
{
    explicit LoopContext(LoopRunner &r) : runner(r) {}

    /**
     * Per-CE stream of a CDOALL: iterations self-scheduled over the
     * concurrency control bus (the shared counter lives in the context;
     * bus dispatch serializes access, so a plain increment models it),
     * then one join barrier. A fault-injected drop-out ends this CE's
     * iteration fetching but it still reports at the barrier — the CCB
     * signals the drop-out, so the survivors' join is never left short.
     */
    class CdoallStream : public OpStream
    {
      public:
        CdoallStream(LoopContext &ctx, unsigned global_ce, Cycles dispatch,
                     Cycles body_call, unsigned barrier_id)
            : _ctx(ctx), _ce(global_ce), _dispatch(dispatch),
              _body_call(body_call), _barrier_id(barrier_id)
        {
        }

        bool next(Op &op) override;

      private:
        bool refill();

        LoopContext &_ctx;
        unsigned _ce;
        Cycles _dispatch;
        Cycles _body_call;
        unsigned _barrier_id;
        std::deque<Op> _queue;
        bool _joined = false;
        bool _dropped = false;
        bool _done = false;
    };

    /** Per-CE stream of a statically chunked XDOALL: [lo, hi). */
    class StaticChunkStream : public OpStream
    {
      public:
        StaticChunkStream(LoopContext &ctx, unsigned global_ce,
                          Cycles body_call, unsigned lo, unsigned hi)
            : _ctx(ctx), _ce(global_ce), _body_call(body_call), _pos(lo),
              _hi(hi)
        {
        }

        bool next(Op &op) override;

      private:
        LoopContext &_ctx;
        unsigned _ce;
        Cycles _body_call;
        unsigned _pos;
        unsigned _hi;
        std::deque<Op> _queue;
    };

    /** Runs every CE's stream; start_event fires it at the start tick. */
    void startGang();

    /** CeDoneListener: one CE exhausted its stream. */
    void ceDone() override;

    LoopRunner &runner;
    MemberEvent<LoopContext, &LoopContext::startGang> start_event{
        *this, EventPriority::normal, "loop.start"};
    IterationBody body;
    RuntimeParams params;
    XdoallStream::Shared xdoall_shared{};
    std::vector<std::unique_ptr<OpStream>> streams;
    /** Machine-wide CE indices the gang runs on (parallel to streams). */
    std::vector<unsigned> ces;
    unsigned remaining = 0;
    LoopDoneListener *done_listener = nullptr;
    // CDOALL self-scheduling state (bus-serialized, so a plain counter).
    unsigned next_iter = 0;
    unsigned n_iters = 0;
    // CEs still taking iterations (fault injection can shrink this;
    // drop-out never takes the last one).
    unsigned alive = 0;
};

bool
LoopRunner::LoopContext::CdoallStream::next(Op &op)
{
    while (_queue.empty()) {
        if (_done || !refill()) {
            _done = true;
            return false;
        }
    }
    op = _queue.front();
    _queue.pop_front();
    return true;
}

bool
LoopRunner::LoopContext::CdoallStream::refill()
{
    machine::CedarMachine &m = _ctx.runner._machine;
    if (!_dropped && _ctx.next_iter < _ctx.n_iters) {
        FaultInjector *f = m.faults();
        if (f && _ctx.alive > 1 && f->ceDropout()) {
            // This CE leaves the gang; the shared counter hands its
            // iterations to the survivors.
            _dropped = true;
            --_ctx.alive;
            m.runtimeStats().dropped_ces.inc();
        } else {
            unsigned iter = _ctx.next_iter++;
            _queue.push_back(Op::makeScalar(_dispatch + _body_call));
            _ctx.body(iter, _ce, _queue);
            m.sim().noteProgress();
            return true;
        }
    }
    if (_joined)
        return false;
    // Exhausted (or dropped out): join at the concurrency-bus barrier
    // once. A dead CE still reports — see the class comment.
    _joined = true;
    _queue.push_back(Op::makeBarrier(_barrier_id));
    return true;
}

bool
LoopRunner::LoopContext::StaticChunkStream::next(Op &op)
{
    while (_queue.empty()) {
        if (_pos >= _hi)
            return false;
        _queue.push_back(Op::makeScalar(_body_call));
        _ctx.body(_pos++, _ce, _queue);
    }
    op = _queue.front();
    _queue.pop_front();
    return true;
}

void
LoopRunner::LoopContext::startGang()
{
    machine::CedarMachine &m = runner._machine;
    for (std::size_t i = 0; i < ces.size(); ++i)
        m.ceAt(ces[i]).run(streams[i].get(), this);
}

void
LoopRunner::LoopContext::ceDone()
{
    sim_assert(remaining > 0, "loop finished more CEs than it started");
    if (--remaining > 0)
        return;
    // Release before notifying: every CE has detached from its stream,
    // and the listener may immediately launch another loop that reuses
    // this context.
    LoopDoneListener *listener = done_listener;
    done_listener = nullptr;
    runner.releaseContext(this);
    if (listener)
        listener->loopDone();
}

/**
 * Launch state for an SDOALL. Each participating cluster gets a slot
 * whose pump/dispatch steps are member events; the slot listens for
 * both its serial prologue's CE and its inner CDOALL's join, so the
 * dispatch cycle runs entirely on reusable objects.
 */
struct LoopRunner::SdoallContext
{
    explicit SdoallContext(LoopRunner &r) : runner(r) {}

    struct Slot : public cluster::CeDoneListener, public LoopDoneListener
    {
        explicit Slot(SdoallContext &c) : ctx(c) {}

        /** Fetch the next iteration for this cluster. */
        void pump();
        /** Start the fetched iteration's work on the cluster. */
        void dispatch();
        void runInner();

        /** CeDoneListener: the serial prologue finished. */
        void ceDone() override { runInner(); }

        /** LoopDoneListener: the inner CDOALL joined. */
        void loopDone() override { pump(); }

        SdoallContext &ctx;
        unsigned cluster = 0;
        SdoallIteration work;
        ProgramStream serial_stream;
        MemberEvent<Slot, &Slot::pump> pump_event{
            *this, EventPriority::normal, "sdoall.pump"};
        MemberEvent<Slot, &Slot::dispatch> dispatch_event{
            *this, EventPriority::normal, "sdoall.dispatch"};
    };

    void finish();

    LoopRunner &runner;
    SdoallBody body;
    unsigned next = 0;
    unsigned n = 0;
    unsigned idle = 0;
    unsigned num_clusters = 0;
    LoopDoneListener *done = nullptr;
    /** One slot per participating cluster; kept across launches. */
    std::vector<std::unique_ptr<Slot>> slots;
};

void
LoopRunner::SdoallContext::Slot::pump()
{
    LoopRunner &r = ctx.runner;
    machine::CedarMachine &m = r._machine;
    if (ctx.next >= ctx.n) {
        if (++ctx.idle == ctx.num_clusters)
            ctx.finish();
        return;
    }
    unsigned iter = ctx.next++;
    m.runtimeStats().sdoall_dispatches.inc();
    m.sim().noteProgress();
    m.postEvent(m.sim().curTick(), Signal::loop_dispatch, iter);
    work = ctx.body(iter, cluster);
    // Iteration dispatch goes through global memory, like XDOALL
    // fetches but for a whole cluster.
    Cycles fetch =
        r._params.xdoall_fetch_software + m.gm().minReadLatency();
    m.sim().schedule(dispatch_event, m.sim().curTick() + fetch);
}

void
LoopRunner::SdoallContext::Slot::dispatch()
{
    if (work.serial_cycles > 0) {
        serial_stream = ProgramStream(
            std::vector<Op>{Op::makeScalar(work.serial_cycles)});
        ctx.runner._machine.clusterAt(cluster).ce(0).run(&serial_stream,
                                                         this);
    } else {
        runInner();
    }
}

void
LoopRunner::SdoallContext::Slot::runInner()
{
    if (work.inner_iters > 0) {
        ctx.runner.cdoallAsync(cluster, work.inner_iters, work.inner_body,
                               this);
    } else {
        pump();
    }
}

void
LoopRunner::SdoallContext::finish()
{
    // Release before notifying, as with LoopContext::ceDone().
    LoopDoneListener *listener = done;
    done = nullptr;
    runner.releaseSdoallContext(this);
    if (listener)
        listener->loopDone();
}

LoopRunner::LoopRunner(machine::CedarMachine &m,
                       const RuntimeParams &params)
    : _machine(m), _params(params)
{
}

LoopRunner::~LoopRunner() = default;

LoopRunner::LoopContext &
LoopRunner::acquireContext()
{
    LoopContext *ctx;
    if (!_free_contexts.empty()) {
        ctx = _free_contexts.back();
        _free_contexts.pop_back();
    } else {
        _contexts.push_back(std::make_unique<LoopContext>(*this));
        ctx = _contexts.back().get();
    }
    ctx->body = nullptr;
    ctx->params = _params;
    ctx->xdoall_shared = XdoallStream::Shared{};
    ctx->streams.clear();
    ctx->ces.clear();
    ctx->remaining = 0;
    ctx->done_listener = nullptr;
    ctx->next_iter = 0;
    ctx->n_iters = 0;
    ctx->alive = 0;
    return *ctx;
}

void
LoopRunner::releaseContext(LoopContext *ctx)
{
    _free_contexts.push_back(ctx);
}

LoopRunner::SdoallContext &
LoopRunner::acquireSdoallContext()
{
    SdoallContext *ctx;
    if (!_free_sdoall_contexts.empty()) {
        ctx = _free_sdoall_contexts.back();
        _free_sdoall_contexts.pop_back();
    } else {
        _sdoall_contexts.push_back(std::make_unique<SdoallContext>(*this));
        ctx = _sdoall_contexts.back().get();
    }
    ctx->body = nullptr;
    ctx->next = 0;
    ctx->n = 0;
    ctx->idle = 0;
    ctx->num_clusters = 0;
    ctx->done = nullptr;
    return *ctx;
}

void
LoopRunner::releaseSdoallContext(SdoallContext *ctx)
{
    _free_sdoall_contexts.push_back(ctx);
}

void
LoopRunner::cdoallAsync(unsigned cluster_idx, unsigned n_iters,
                        IterationBody body, LoopDoneListener *done,
                        unsigned num_ces)
{
    auto &cl = _machine.clusterAt(cluster_idx);
    unsigned n_ces = num_ces ? num_ces : cl.numCes();
    sim_assert(n_ces <= cl.numCes(), "cluster has only ", cl.numCes(),
               " CEs");

    LoopContext &ctx = acquireContext();
    ctx.body = std::move(body);
    ctx.remaining = n_ces;
    ctx.done_listener = done;
    ctx.n_iters = n_iters;
    ctx.alive = n_ces;

    unsigned barrier_id = cl.newBarrier(n_ces);
    Cycles dispatch =
        _params.cdoall_fetch_software + cl.ccb().params().dispatch_cycles;
    Cycles body_call = _params.body_call_overhead;

    unsigned first_ce = cluster_idx * _machine.config().cluster.num_ces;
    for (unsigned i = 0; i < n_ces; ++i) {
        unsigned global_ce = first_ce + i;
        ctx.ces.push_back(global_ce);
        ctx.streams.push_back(std::make_unique<LoopContext::CdoallStream>(
            ctx, global_ce, dispatch, body_call, barrier_id));
    }

    _machine.runtimeStats().cdoall_starts.inc();
    _machine.runtimeStats().iterations.inc(n_iters);
    _machine.postEvent(_machine.sim().curTick(), Signal::loop_cdoall,
                       n_iters);

    // Gang start over the concurrency control bus.
    Tick start_at = cl.ccb().concurrentStart(_machine.sim().curTick());
    _machine.sim().schedule(ctx.start_event, start_at);
}

void
LoopRunner::xdoallAsync(std::vector<unsigned> ces, unsigned n_iters,
                        IterationBody body, LoopDoneListener *done,
                        Schedule sched)
{
    sim_assert(!ces.empty(), "XDOALL needs at least one CE");
    LoopContext &ctx = acquireContext();
    ctx.body = std::move(body);
    ctx.remaining = static_cast<unsigned>(ces.size());
    ctx.done_listener = done;
    ctx.n_iters = n_iters;
    ctx.ces = std::move(ces);

    if (sched == Schedule::self_scheduled) {
        Addr cells = _machine.allocGlobal(2);
        ctx.xdoall_shared = XdoallStream::Shared{
            cells, cells + 1, n_iters,
            static_cast<unsigned>(ctx.ces.size())};
        _machine.gm().pokeCell(cells, 0);
        _machine.gm().pokeCell(cells + 1, 0);
        for (unsigned ce : ctx.ces) {
            ctx.streams.push_back(std::make_unique<XdoallStream>(
                &_machine, &ctx.xdoall_shared, ce, &ctx.body,
                &ctx.params));
        }
    } else {
        // Static chunking pre-assigns the iteration space, so there is
        // no redistribution mechanism: CE drop-out is a self-scheduling
        // feature and is not rolled here. The space is pre-split into
        // equal pieces.
        unsigned p = static_cast<unsigned>(ctx.ces.size());
        for (unsigned idx = 0; idx < p; ++idx) {
            unsigned lo = static_cast<unsigned>(
                (std::uint64_t(n_iters) * idx) / p);
            unsigned hi = static_cast<unsigned>(
                (std::uint64_t(n_iters) * (idx + 1)) / p);
            ctx.streams.push_back(
                std::make_unique<LoopContext::StaticChunkStream>(
                    ctx, ctx.ces[idx], _params.body_call_overhead, lo,
                    hi));
        }
    }

    _machine.runtimeStats().xdoall_starts.inc();
    _machine.runtimeStats().iterations.inc(n_iters);
    _machine.postEvent(_machine.sim().curTick(), Signal::loop_xdoall,
                       n_iters);

    // XDOALL processors get started through global memory: the gang is
    // live one startup latency after launch.
    Tick start_at = _machine.sim().curTick() + _params.xdoall_startup;
    _machine.sim().schedule(ctx.start_event, start_at);
}

void
LoopRunner::sdoallAsync(std::vector<unsigned> clusters, unsigned n_iters,
                        SdoallBody body, LoopDoneListener *done)
{
    sim_assert(!clusters.empty(), "SDOALL needs at least one cluster");
    SdoallContext &ctx = acquireSdoallContext();
    ctx.body = std::move(body);
    ctx.n = n_iters;
    ctx.num_clusters = static_cast<unsigned>(clusters.size());
    ctx.done = done;
    while (ctx.slots.size() < clusters.size())
        ctx.slots.push_back(std::make_unique<SdoallContext::Slot>(ctx));

    _machine.runtimeStats().sdoall_starts.inc();
    _machine.runtimeStats().iterations.inc(n_iters);
    _machine.postEvent(_machine.sim().curTick(), Signal::loop_sdoall,
                       n_iters);

    Tick start_at = _machine.sim().curTick() + _params.sdoall_startup;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        SdoallContext::Slot &slot = *ctx.slots[i];
        slot.cluster = clusters[i];
        _machine.sim().schedule(slot.pump_event, start_at);
    }
}

namespace {

/** A blocking launch's join: records the tick the loop joined at. */
class JoinTick : public LoopDoneListener
{
  public:
    explicit JoinTick(Simulation &sim) : _sim(sim) {}

    void
    loopDone() override
    {
        finished = true;
        end = _sim.curTick();
    }

    bool finished = false;
    Tick end = 0;

  private:
    Simulation &_sim;
};

} // namespace

Tick
LoopRunner::cdoall(unsigned cluster_idx, unsigned n_iters,
                   const IterationBody &body, unsigned num_ces)
{
    JoinTick join(_machine.sim());
    cdoallAsync(cluster_idx, n_iters, body, &join, num_ces);
    _machine.sim().run();
    sim_assert(join.finished, "CDOALL did not complete");
    return join.end;
}

Tick
LoopRunner::xdoall(std::vector<unsigned> ces, unsigned n_iters,
                   const IterationBody &body, Schedule sched)
{
    JoinTick join(_machine.sim());
    xdoallAsync(std::move(ces), n_iters, body, &join, sched);
    _machine.sim().run();
    sim_assert(join.finished, "XDOALL did not complete");
    return join.end;
}

Tick
LoopRunner::sdoall(std::vector<unsigned> clusters, unsigned n_iters,
                   const SdoallBody &body)
{
    JoinTick join(_machine.sim());
    sdoallAsync(std::move(clusters), n_iters, body, &join);
    _machine.sim().run();
    sim_assert(join.finished, "SDOALL did not complete");
    return join.end;
}

std::vector<unsigned>
LoopRunner::allCes() const
{
    std::vector<unsigned> ces(_machine.numCes());
    for (unsigned i = 0; i < ces.size(); ++i)
        ces[i] = i;
    return ces;
}

std::vector<unsigned>
LoopRunner::cesOfClusters(unsigned n) const
{
    unsigned per = _machine.config().cluster.num_ces;
    std::vector<unsigned> ces;
    ces.reserve(std::size_t(n) * per);
    for (unsigned c = 0; c < n; ++c)
        for (unsigned i = 0; i < per; ++i)
            ces.push_back(c * per + i);
    return ces;
}

} // namespace cedar::runtime
