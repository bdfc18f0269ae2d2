/**
 * @file
 * The event-object model, in the gem5 tradition.
 *
 * An Event is a reusable object a component owns and hands to its
 * Simulation's queue by reference: the engine links it in intrusively
 * (embedded when/priority/seq fields plus a heap index), so scheduling
 * a member event allocates nothing. Subclasses implement process().
 *
 * Lifetime rules:
 *  - An event may be scheduled on at most one Simulation at a time;
 *    reschedule() moves it, deschedule() removes it.
 *  - When fired, the event is descheduled *before* process() runs, so
 *    process() may immediately reschedule `*this`.
 *  - A scheduled event that is destroyed deschedules itself. The
 *    simulation it is scheduled on must still be alive at that point
 *    (components referencing a Simulation already guarantee this).
 *
 * Events are the only thing the engine schedules. One-shot work is an
 * event its owner keeps until it fires; completions that cross
 * components go through listener interfaces (PfuConsumer,
 * BarrierWaiter, CeDoneListener, LoopDoneListener).
 */

#ifndef CEDARSIM_SIM_EVENT_HH
#define CEDARSIM_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>

#include "sim/types.hh"

namespace cedar {

class Simulation;

/** Scheduling priorities for same-tick ordering. Lower runs first. */
enum class EventPriority : int
{
    normal = 0,      ///< default component activity
    ce_progress = 1, ///< CE state-machine advancement
    stats = 2,       ///< end-of-tick statistics sampling
};

/**
 * Base class of everything the engine can schedule. Same-tick events
 * fire in (priority, seq) order, where seq is assigned at schedule
 * time, i.e. insertion order.
 */
class Event
{
  public:
    explicit Event(EventPriority prio = EventPriority::normal)
        : _priority(static_cast<int>(prio))
    {
    }
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    virtual ~Event();

    /** The event's action, run when simulated time reaches when(). */
    virtual void process() = 0;

    /** Short static label: the event kind in host profiles and errors. */
    virtual const char *description() const { return "event"; }

    /** True while linked into a simulation's queue. */
    bool scheduled() const { return _heap_index != unscheduled_index; }

    /** Tick this event is (or was last) scheduled for. */
    Tick when() const { return _when; }

    /** Same-tick ordering class. */
    int priority() const { return _priority; }

    /** Insertion-order tie-break within (when, priority). */
    std::uint64_t seq() const { return _seq; }

  private:
    friend class Simulation;

    static constexpr std::size_t unscheduled_index = ~std::size_t(0);

    Tick _when = 0;
    int _priority = 0;
    std::uint64_t _seq = 0;
    /** Position in the owning simulation's heap; sentinel when idle. */
    std::size_t _heap_index = unscheduled_index;
    /** The queue this event is linked into, while scheduled. */
    Simulation *_sim = nullptr;
};

/**
 * An event that invokes a member function on an owning object — the
 * stock shape for a component's recurring activation:
 *
 *   MemberEvent<PrefetchUnit, &PrefetchUnit::issueNext> _issue_event;
 */
template <class T, void (T::*F)()>
class MemberEvent : public Event
{
  public:
    explicit MemberEvent(T &obj,
                         EventPriority prio = EventPriority::normal,
                         const char *desc = "member")
        : Event(prio), _obj(obj), _desc(desc)
    {
    }

    void process() override { (_obj.*F)(); }
    const char *description() const override { return _desc; }

  private:
    T &_obj;
    const char *_desc;
};

} // namespace cedar

#endif // CEDARSIM_SIM_EVENT_HH
