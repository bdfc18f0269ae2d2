/**
 * @file
 * Start a set of CEs on their op streams and run the machine until the
 * queue drains: the launch shared by the kernels and microbenchmarks.
 */

#ifndef CEDARSIM_RUNTIME_LAUNCH_HH
#define CEDARSIM_RUNTIME_LAUNCH_HH

#include <vector>

#include "machine/cedar.hh"

namespace cedar::runtime {

/** One CE to start: which CE, the stream it runs, and when. */
struct CeLaunch
{
    cluster::ComputationalElement *ce;
    cluster::OpStream *stream;
    Tick start;
};

/**
 * Schedule one start event per entry, in order, then run the machine.
 * The streams must outlive the call.
 * @return how many of the CEs ran their stream to the end
 */
unsigned runCes(machine::CedarMachine &machine,
                const std::vector<CeLaunch> &launches);

} // namespace cedar::runtime

#endif // CEDARSIM_RUNTIME_LAUNCH_HH
