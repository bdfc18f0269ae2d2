/**
 * @file
 * The computational element (CE).
 *
 * A CE is a pipelined 68020-class processor augmented with vector
 * instructions: 64-bit floating point, eight 32-word vector registers,
 * register-memory operand format, and an 11.8 MFLOPS peak on chained
 * 64-bit vector operations (2 flops per 170 ns cycle). The simulator CE
 * is a state machine that pulls Ops from an OpStream and advances
 * through them, issuing memory traffic as simulation events and
 * respecting the machine's structural limits (two outstanding global
 * requests, vector startup, operand-source bandwidths).
 */

#ifndef CEDARSIM_CLUSTER_CE_HH
#define CEDARSIM_CLUSTER_CE_HH

#include <memory>
#include <vector>

#include "cluster/cache.hh"
#include "cluster/ccbus.hh"
#include "cluster/clustermem.hh"
#include "cluster/op.hh"
#include "mem/globalmem.hh"
#include "prefetch/pfu.hh"
#include "sim/engine.hh"
#include "sim/named.hh"

namespace cedar::cluster {

/** Timing parameters for a CE. */
struct CeParams
{
    /** Vector instruction startup cost in cycles (~12 gives the paper's
     *  274-of-376 MFLOPS effective peak on 32-word strips). */
    Cycles vector_startup = 12;
    /** Additional issue/address-generation cost for vector instructions
     *  with a memory operand (register-memory format); calibrated so a
     *  cache-resident rank-64 update lands at Table 1's GM/cache row. */
    Cycles vector_mem_overhead = 10;
    /** Cycles from the CE deciding to access global memory to the
     *  request entering the forward network. */
    Cycles issue_cycles = 2;
    /** Cycles from data at the CE's network port to being usable;
     *  together with issue_cycles and the 8-cycle network+module
     *  minimum this forms the 13-cycle CE-visible latency. */
    Cycles drain_cycles = 5;
    /** Maximum outstanding global requests without the PFU. */
    unsigned max_outstanding = 2;
    /** Same-tick op-processing bound before yielding to the queue. */
    unsigned ops_per_event = 64;
};

/** Resolves barrier ids to barrier objects (implemented by Cluster). */
class BarrierProvider
{
  public:
    virtual ~BarrierProvider() = default;
    virtual CcBarrier &barrier(unsigned id) = 0;
};

/** Notified when a CE exhausts its op stream (allocation-free). */
class CeDoneListener
{
  public:
    virtual ~CeDoneListener() = default;
    virtual void ceDone() = 0;
};

/** One computational element. */
class ComputationalElement : public Named,
                             public BarrierWaiter,
                             public prefetch::PfuConsumer
{
  public:
    ComputationalElement(const std::string &name, Simulation &sim,
                         mem::GlobalMemory &gm, unsigned port,
                         SharedCache &cache, ClusterMemory &cmem,
                         BarrierProvider &barriers, const CeParams &params,
                         const prefetch::PfuParams &pfu_params);

    /**
     * Begin executing @p stream; @p listener->ceDone() fires when it
     * is exhausted (nullptr: nobody is told). The CE must be idle. The
     * stream and listener must outlive execution.
     */
    void run(OpStream *stream, CeDoneListener *listener);

    bool busy() const { return _stream != nullptr; }

    /** Floating-point operations completed so far. */
    double flops() const { return _flops; }

    /** Ops completed so far. */
    std::uint64_t opsCompleted() const { return _ops.value(); }

    /** Tick at which the most recent stream finished. */
    Tick lastDone() const { return _last_done; }

    prefetch::PrefetchUnit &pfu() { return *_pfu; }
    unsigned port() const { return _port; }
    const CeParams &params() const { return _params; }

    /** Register CE statistics (and its PFU's) under its name. */
    void
    registerStats(StatRegistry &reg)
    {
        reg.addCounter(child("ops"), _ops);
        reg.addScalar(child("flops"), [this] { return _flops; });
        _pfu->registerStats(reg);
    }

    /**
     * Accumulated flops/ops and the PFU's state. Requires an idle CE:
     * op streams are workload closures and cannot be serialized, so a
     * busy CE refuses with a `checkpoint` SimError.
     */
    void saveState(CheckpointWriter &w) const;
    void restoreState(const CheckpointReader &r);

    /** BarrierWaiter: resume after a concurrency-bus barrier release. */
    void barrierReleased(Tick when) override;

    /** PfuConsumer: resume after a prefetch-buffer consumption. */
    void pfuConsumed(Tick done) override;

  private:
    void advance();
    void continueAt(Tick when);
    void finishOp(double flops);
    void globalVectorStep();
    void streamDone();

    /** Fired by _advance_event: clear the wait flag and advance. */
    void resumeAdvance();

    /** Fired by _sync_event: deliver _pending_sync and advance. */
    void resumeSync();

    Simulation &_sim;
    mem::GlobalMemory &_gm;
    unsigned _port;
    SharedCache &_cache;
    ClusterMemory &_cmem;
    BarrierProvider &_barriers;
    CeParams _params;
    std::unique_ptr<prefetch::PrefetchUnit> _pfu;

    /**
     * The CE's recurring continuation: every yield of the state
     * machine reschedules this member event instead of allocating a
     * closure — the steady-state advance path schedules nothing on
     * the heap.
     */
    MemberEvent<ComputationalElement,
                &ComputationalElement::resumeAdvance>
        _advance_event{*this, EventPriority::ce_progress, "ce.advance"};

    /** Continuation of an OpKind::sync op; result parked in
     *  _pending_sync until the event fires. */
    MemberEvent<ComputationalElement, &ComputationalElement::resumeSync>
        _sync_event{*this, EventPriority::ce_progress, "ce.sync"};
    mem::SyncResult _pending_sync{};

    /** Flops credit of the in-flight prefetch-buffer consumption. */
    double _pending_pfu_flops = 0.0;

    OpStream *_stream = nullptr;
    CeDoneListener *_done_listener = nullptr;
    Op _op;
    bool _have_op = false;
    bool _waiting = false;

    /** In-flight state for a global_direct vector instruction. */
    struct GlobalVector
    {
        bool active = false;
        unsigned issued = 0;
        unsigned completed = 0;
        std::vector<Tick> outstanding;
    };
    GlobalVector _gv;

    double _flops = 0.0;
    Counter _ops;
    Tick _last_done = 0;
};

} // namespace cedar::cluster

#endif // CEDARSIM_CLUSTER_CE_HH
