/**
 * @file
 * Test-only adapters onto the engine's one event model.
 *
 * LambdaEvent is an Event that runs a lambda. A test owns every
 * LambdaEvent it schedules (on the stack, or in a std::deque for
 * events made on the fly); none deletes itself, so a run that stops
 * with events still queued leaks nothing. CompletionLog listens on the
 * hardware completion paths.
 */

#ifndef CEDARSIM_TESTS_TEST_EVENTS_HH
#define CEDARSIM_TESTS_TEST_EVENTS_HH

#include <functional>
#include <utility>
#include <vector>

#include "cluster/ce.hh"
#include "sim/event.hh"

namespace cedar::test {

class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(std::function<void()> fn,
                         EventPriority prio = EventPriority::normal)
        : Event(prio), _fn(std::move(fn))
    {
    }

    void process() override { _fn(); }
    const char *description() const override { return "test.lambda"; }

  private:
    std::function<void()> _fn;
};

/**
 * Records completions: PFU consumptions and barrier releases log their
 * tick, CE stream ends are counted.
 */
struct CompletionLog : public prefetch::PfuConsumer,
                       public cluster::BarrierWaiter,
                       public cluster::CeDoneListener
{
    std::vector<Tick> ticks;
    unsigned ces_done = 0;

    void pfuConsumed(Tick done) override { ticks.push_back(done); }
    void barrierReleased(Tick when) override { ticks.push_back(when); }
    void ceDone() override { ++ces_done; }

    /** The latest logged tick, or 0 before any. */
    Tick last() const { return ticks.empty() ? 0 : ticks.back(); }
};

} // namespace cedar::test

#endif // CEDARSIM_TESTS_TEST_EVENTS_HH
