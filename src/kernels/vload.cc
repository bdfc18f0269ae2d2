/**
 * @file
 * VL kernel implementation.
 */

#include "vload.hh"

#include <deque>
#include <memory>

#include "runtime/launch.hh"
#include "runtime/streams.hh"

namespace cedar::kernels {

using cluster::Op;
using runtime::GeneratorStream;

KernelResult
runVload(machine::CedarMachine &machine, const VloadParams &params)
{
    sim_assert(params.ces >= 1 && params.ces <= machine.numCes(),
               "bad CE count");
    sim_assert(params.block % 32 == 0 || params.block == 32,
               "block should be a multiple of the 32-word strip");

    std::vector<std::unique_ptr<cluster::OpStream>> streams;
    std::vector<unsigned> ces;

    for (unsigned c = 0; c < params.ces; ++c) {
        ces.push_back(c);
        Addr region = machine.allocGlobalStaggered(
            std::uint64_t(params.block) * params.repetitions);
        auto stream = std::make_unique<GeneratorStream>(
            [region, block = params.block, reps = params.repetitions,
             r = 0u](std::deque<Op> &out) mutable {
                if (r >= reps)
                    return false;
                Addr base = region + std::uint64_t(r) * block;
                out.push_back(Op::makePrefetch(base, block));
                for (unsigned o = 0; o < block; o += 32)
                    out.push_back(Op::makeVectorFromPrefetch(32, o, 0.0));
                ++r;
                return true;
            });
        streams.push_back(std::move(stream));
    }

    std::vector<runtime::CeLaunch> launches;
    for (unsigned c = 0; c < params.ces; ++c)
        launches.push_back({&machine.ceAt(c), streams[c].get(), 0});
    unsigned done = runtime::runCes(machine, launches);
    sim_assert(done == params.ces, "VL incomplete");

    KernelResult result;
    result.ces = params.ces;
    result.start = 0;
    for (unsigned c : ces)
        result.end = std::max(result.end, machine.ceAt(c).lastDone());
    result.flops = 0.0;
    collectPfuStats(machine, ces, result);
    return result;
}

} // namespace cedar::kernels
