/**
 * @file
 * The shared CE launch: one start event per CE, completions counted
 * through the CE's done listener.
 */

#include "launch.hh"

#include <deque>

namespace cedar::runtime {

namespace {

/** Starts one CE at its tick and counts the end of its stream. */
class CeStart : public Event, public cluster::CeDoneListener
{
  public:
    CeStart(const CeLaunch &launch, unsigned &done)
        : _launch(launch), _done(done)
    {
    }

    void process() override { _launch.ce->run(_launch.stream, this); }
    const char *description() const override { return "ce.start"; }
    void ceDone() override { ++_done; }

  private:
    CeLaunch _launch;
    unsigned &_done;
};

} // namespace

unsigned
runCes(machine::CedarMachine &machine, const std::vector<CeLaunch> &launches)
{
    unsigned done = 0;
    std::deque<CeStart> starts;
    for (const CeLaunch &launch : launches) {
        starts.emplace_back(launch, done);
        machine.sim().schedule(starts.back(), launch.start);
    }
    machine.sim().run();
    return done;
}

} // namespace cedar::runtime
