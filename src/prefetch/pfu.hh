/**
 * @file
 * The Cedar data prefetch unit (PFU).
 *
 * Each CE owns a PFU designed to mask the long global-memory latency and
 * to overcome the CE's limit of two outstanding requests. A PFU is
 * "armed" with the length, stride, and mask of a vector and "fired" with
 * the physical address of the first word. It then issues up to 512
 * requests without pausing, except that it must suspend at 4 KB page
 * boundaries until the processor supplies the first physical address in
 * the new page. Data returns to a 512-word buffer, possibly out of
 * order; a full/empty bit per word lets the CE consume in request order
 * without waiting for the whole block.
 */

#ifndef CEDARSIM_PREFETCH_PFU_HH
#define CEDARSIM_PREFETCH_PFU_HH

#include <memory>
#include <vector>

#include "mem/address.hh"
#include "mem/globalmem.hh"
#include "sim/engine.hh"
#include "sim/named.hh"
#include "sim/probes.hh"
#include "sim/statreg.hh"
#include "sim/stats.hh"

namespace cedar::prefetch {

/** Notified when an in-order buffer consumption completes. */
class PfuConsumer
{
  public:
    virtual ~PfuConsumer() = default;

    /** @param done tick at which the last word has drained */
    virtual void pfuConsumed(Tick done) = 0;
};

/** Construction parameters for a PFU. */
struct PfuParams
{
    /** Prefetch buffer capacity in words (hardware: 512). */
    unsigned buffer_words = 512;
    /** Cycles between successive request issues. */
    Cycles issue_interval = 2;
    /** Requests in flight before network flow control stalls the PFU
     *  (the two-word switch queues push back well before the 512-word
     *  buffer fills). */
    unsigned max_outstanding = 32;
    /** Cycles to write a returning word into the buffer. */
    Cycles buffer_fill = 2;
    /** Cycles to arm and fire (CE-side instruction cost). */
    Cycles arm_fire_cycles = 4;
    /** CE stall when the PFU suspends at a page boundary. */
    Cycles page_cross_penalty = 16;
    /** Cycles to drain one word from the buffer into the CE. */
    Cycles drain_cycles = 1;
};

/**
 * One prefetch unit, bound to a CE's global-memory port.
 *
 * The PFU issues its requests as simulation events (so its injections
 * interleave correctly with all other traffic) and records the arrival
 * tick of every word. Consumers ask for the completion time of an
 * in-order streaming read of a word range; if some arrivals are not yet
 * known the query is answered as soon as they are.
 */
class PrefetchUnit : public Named
{
  public:
    PrefetchUnit(const std::string &name, Simulation &sim,
                 mem::GlobalMemory &gm, unsigned port,
                 const PfuParams &params);

    /**
     * Arm and fire a prefetch of @p length words starting at @p start
     * with the given word stride. Any previous buffer contents are
     * invalidated. Issue events begin at @p when.
     */
    void fire(Addr start, unsigned length, unsigned stride, Tick when);

    /**
     * Masked variant: the PFU is armed with length, stride, *and mask*
     * (paper, Section 2). Only elements whose mask bit is set are
     * fetched; unmasked buffer slots never fill and are skipped by
     * consumption. @p mask must hold @p length bits.
     */
    void fireMasked(Addr start, unsigned length, unsigned stride,
                    const std::vector<bool> &mask, Tick when);

    /**
     * Test hook: install a completed prefetch whose words arrived at
     * the given ticks, bypassing the memory path. The reservation-timed
     * network delivers one port's responses in issue order, so this is
     * the only way to exercise the full/empty-bit consumption fold
     * against genuinely out-of-order arrivals.
     */
    void fireSynthetic(const std::vector<Tick> &arrivals);

    /**
     * Reuse the current buffer contents without refetching ("it is
     * possible to keep prefetched data in that buffer and reuse it
     * from there") — returns true if [first, first+count) is covered
     * by the live prefetch, so a consumer may call whenConsumed()
     * again instead of firing.
     */
    bool canReuse(unsigned first, unsigned count) const;

    /** Number of words covered by the current prefetch. */
    unsigned length() const { return _length; }

    /** True once every enabled word of the prefetch has arrived. */
    bool complete() const { return _arrived == _enabled_count; }

    /** Arrival tick of word @p index; max_tick if not yet known. */
    Tick wordArrival(unsigned index) const;

    /**
     * Ask for the completion tick of consuming words
     * [first, first + count) in order, one per cycle, starting no
     * earlier than @p start. The consumer is notified from a
     * simulation event (possibly immediately if all arrivals are
     * already known). Allocation-free: the answer rides a recycled
     * pool event and the consumer is an interface pointer.
     */
    void whenConsumed(unsigned first, unsigned count, Tick start,
                      PfuConsumer &consumer);

    /** First-word latencies (issue -> buffer), Table 2's "Latency". */
    const SampleStat &latencyStat() const { return _latency; }

    /** Sorted-arrival gaps within a block, Table 2's "Interarrival". */
    const SampleStat &interarrivalStat() const { return _interarrival; }

    /** Number of page-boundary suspensions taken. */
    std::uint64_t pageCrossings() const { return _page_crossings.value(); }

    std::uint64_t requestsIssued() const { return _requests.value(); }

    const PfuParams &params() const { return _params; }

    /** Post fire/fill/consume events to @p m (nullptr detaches). */
    void attachMonitor(MonitorSink *m) { _monitor = m; }

    /** Register PFU statistics under the component name. */
    void registerStats(StatRegistry &reg);

    /**
     * Arm state, buffer arrival records (a live block may be reused
     * after restore via canReuse), and statistics. Requires a quiescent
     * PFU: no pending issue event and no outstanding queries. Restore
     * refuses, as a `checkpoint` SimError, lengths and counts that no
     * fire could have left (past the buffer or the arrival records).
     */
    void saveState(CheckpointWriter &w) const;
    void restoreState(const CheckpointReader &r);

  private:
    void beginFire(Addr start, unsigned length, unsigned stride,
                   Tick when);
    bool enabled(unsigned index) const;
    void skipDisabled();
    void issueNext();
    void finishBlock();
    void answerQueries();

    Simulation &_sim;
    mem::GlobalMemory &_gm;
    unsigned _port;
    PfuParams _params;

    /**
     * The recurring issue pump. beginFire() reschedules it, which
     * also cancels the pending issue of any prefetch a new fire
     * interrupts (the old engine let a stale generation-checked
     * closure fire as a no-op instead).
     */
    MemberEvent<PrefetchUnit, &PrefetchUnit::issueNext> _issue_event{
        *this, EventPriority::normal, "pfu.issue"};

    Addr _start = 0;
    unsigned _stride = 1;
    unsigned _length = 0;
    unsigned _next_issue = 0;
    unsigned _arrived = 0;
    unsigned _enabled_count = 0;
    std::vector<Tick> _arrivals;
    std::vector<bool> _mask;
    std::vector<Tick> _request_arrivals;

    struct Query
    {
        unsigned last;
        unsigned first;
        unsigned count;
        Tick start;
        PfuConsumer *consumer;
    };
    std::vector<Query> _queries;

    /** Delivers one answered query; recycled through _free_consume. */
    class ConsumeEvent : public Event
    {
      public:
        explicit ConsumeEvent(PrefetchUnit &pfu)
            : Event(EventPriority::normal), _pfu(pfu)
        {
        }

        void process() override;
        const char *description() const override { return "pfu.consume"; }

      private:
        friend class PrefetchUnit;
        PrefetchUnit &_pfu;
        PfuConsumer *_consumer = nullptr;
        Tick _done = 0;
        ConsumeEvent *_free_next = nullptr;
    };

    ConsumeEvent *acquireConsumeEvent();
    void releaseConsumeEvent(ConsumeEvent *ev);

    std::vector<std::unique_ptr<ConsumeEvent>> _consume_pool;
    ConsumeEvent *_free_consume = nullptr;

    SampleStat _latency;
    SampleStat _interarrival;
    Counter _requests;
    Counter _page_crossings;
    MonitorSink *_monitor = nullptr;
};

} // namespace cedar::prefetch

#endif // CEDARSIM_PREFETCH_PFU_HH
