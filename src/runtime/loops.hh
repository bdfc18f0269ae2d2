/**
 * @file
 * The Cedar Fortran parallel-loop runtime.
 *
 * Three loop flavors are provided, mirroring the language (Section 3):
 *
 *  - CDOALL: iterations spread over the CEs of one cluster using the
 *    concurrency control bus; starts in a few microseconds.
 *  - XDOALL: iterations spread over any set of CEs machine-wide;
 *    started, terminated, and scheduled through global memory (~90 us
 *    startup, ~30 us per iteration fetch). Self-scheduling uses the
 *    Cedar Test-And-Operate instructions, or a Test-And-Set lock
 *    protocol when they are disabled.
 *  - SDOALL: iterations scheduled on whole clusters; each iteration
 *    starts on one CE and typically contains a CDOALL nest, giving the
 *    cheap hierarchical SDOALL/CDOALL control structure.
 */

#ifndef CEDARSIM_RUNTIME_LOOPS_HH
#define CEDARSIM_RUNTIME_LOOPS_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "machine/cedar.hh"
#include "runtime/params.hh"
#include "runtime/streams.hh"

namespace cedar::runtime {

/**
 * Emits the ops of one loop iteration.
 * @param iter      iteration number
 * @param global_ce machine-wide CE index executing the iteration
 * @param out       queue to append the iteration's ops to
 */
using IterationBody =
    std::function<void(unsigned iter, unsigned global_ce,
                       std::deque<Op> &out)>;

/** Notified at loop join (the allocation-free form of `done`). */
class LoopDoneListener
{
  public:
    virtual ~LoopDoneListener() = default;
    virtual void loopDone() = 0;
};

/**
 * Orchestrates parallel loops on a CedarMachine.
 *
 * Every launch runs on its own context, kept until the runner dies,
 * whose gang start, per-CE completion, and SDOALL pump/dispatch steps
 * are event objects and interface calls; a launch reports its join to
 * a LoopDoneListener.
 */
class LoopRunner
{
  public:
    explicit LoopRunner(machine::CedarMachine &m,
                        const RuntimeParams &params = RuntimeParams{});
    ~LoopRunner();

    const RuntimeParams &params() const { return _params; }

    /**
     * Launch a CDOALL on one cluster; @p done is told at loop join.
     * @param cluster_idx cluster to run on
     * @param n_iters     iteration count
     * @param body        iteration body generator
     * @param done        join listener (nullptr: nobody is told)
     * @param num_ces     CEs to use (0 = all in the cluster)
     */
    void cdoallAsync(unsigned cluster_idx, unsigned n_iters,
                     IterationBody body, LoopDoneListener *done,
                     unsigned num_ces = 0);

    /** Launch an XDOALL over an explicit set of machine-wide CEs. */
    void xdoallAsync(std::vector<unsigned> ces, unsigned n_iters,
                     IterationBody body, LoopDoneListener *done,
                     Schedule sched = Schedule::self_scheduled);

    /** What an SDOALL iteration runs on its cluster. */
    struct SdoallIteration
    {
        /** Scalar prologue on the cluster's first CE. */
        Cycles serial_cycles = 0;
        /** Inner CDOALL iteration count (0 = no inner loop). */
        unsigned inner_iters = 0;
        /** Inner CDOALL body. */
        IterationBody inner_body;
    };

    /** Produces the work of SDOALL iteration @p iter on @p cluster. */
    using SdoallBody =
        std::function<SdoallIteration(unsigned iter, unsigned cluster)>;

    /** Launch an SDOALL over a set of clusters. */
    void sdoallAsync(std::vector<unsigned> clusters, unsigned n_iters,
                     SdoallBody body, LoopDoneListener *done);

    /**
     * Blocking variants: launch, drive the simulation to completion,
     * and return the tick at which the loop joined.
     */
    Tick cdoall(unsigned cluster_idx, unsigned n_iters,
                const IterationBody &body, unsigned num_ces = 0);
    Tick xdoall(std::vector<unsigned> ces, unsigned n_iters,
                const IterationBody &body,
                Schedule sched = Schedule::self_scheduled);
    Tick sdoall(std::vector<unsigned> clusters, unsigned n_iters,
                const SdoallBody &body);

    /** All machine-wide CE indices (convenience). */
    std::vector<unsigned> allCes() const;

    /** CE indices of the first @p n clusters. */
    std::vector<unsigned> cesOfClusters(unsigned n) const;

  private:
    struct LoopContext;
    struct SdoallContext;
    friend struct LoopContext;
    friend struct SdoallContext;

    machine::CedarMachine &_machine;
    RuntimeParams _params;

    /** Every launch's state; a CE's stream and done listener point
     *  into it, so it outlives the loop. */
    std::vector<std::unique_ptr<LoopContext>> _contexts;
    std::vector<std::unique_ptr<SdoallContext>> _sdoall_contexts;
};

} // namespace cedar::runtime

#endif // CEDARSIM_RUNTIME_LOOPS_HH
