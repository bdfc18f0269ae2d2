/**
 * @file
 * Runtime microbenchmark implementations.
 */

#include "microbench.hh"

#include <deque>
#include <memory>

#include "machine/cedar.hh"
#include "runtime/gmbarrier.hh"
#include "runtime/launch.hh"
#include "runtime/loops.hh"
#include "runtime/streams.hh"

namespace cedar::runtime {

namespace {

/** A stream that runs a fixed number of GM barrier episodes. */
class BarrierBench : public cluster::OpStream
{
  public:
    BarrierBench(Addr cell, unsigned participants, unsigned episodes)
        : _protocol(cell, participants), _episodes(episodes)
    {
    }

    bool
    next(cluster::Op &op) override
    {
        while (_queue.empty()) {
            if (_protocol.active())
                panic("barrier bench asked for ops while waiting");
            if (_done >= _episodes)
                return false;
            ++_done;
            _protocol.begin(_queue);
        }
        op = _queue.front();
        _queue.pop_front();
        return true;
    }

    void
    syncResult(const mem::SyncResult &res) override
    {
        _protocol.onSync(res, _queue);
    }

  private:
    GmBarrierProtocol _protocol;
    unsigned _episodes;
    unsigned _done = 0;
    std::deque<cluster::Op> _queue;
};

double
xdoallFetchMicros(unsigned ces, bool cedar_sync)
{
    auto run = [&](unsigned iters_per_ce) {
        machine::CedarMachine machine;
        RuntimeParams params;
        params.use_cedar_sync = cedar_sync;
        LoopRunner runner(machine, params);
        std::vector<unsigned> ce_list;
        for (unsigned i = 0; i < ces; ++i)
            ce_list.push_back(i);
        Tick end = runner.xdoall(
            ce_list, ces * iters_per_ce,
            [](unsigned, unsigned, std::deque<cluster::Op> &out) {
                out.push_back(cluster::Op::makeScalar(10));
            });
        return ticksToMicros(end);
    };
    return (run(11) - run(1)) / 10.0;
}

} // namespace

double
measureGmBarrierMicros(unsigned ces, unsigned episodes)
{
    machine::CedarMachine machine;
    Addr cell = machine.allocGlobal(1);
    machine.gm().pokeCell(cell, 0);

    std::vector<std::unique_ptr<BarrierBench>> streams;
    for (unsigned c = 0; c < ces; ++c)
        streams.push_back(
            std::make_unique<BarrierBench>(cell, ces, episodes));
    std::vector<CeLaunch> launches;
    for (unsigned c = 0; c < ces; ++c)
        launches.push_back({&machine.ceAt(c), streams[c].get(), 0});
    unsigned done = runCes(machine, launches);
    sim_assert(done == ces, "barrier bench incomplete");
    Tick end = 0;
    for (unsigned c = 0; c < ces; ++c)
        end = std::max(end, machine.ceAt(c).lastDone());
    return ticksToMicros(end) / episodes;
}

MeasuredCosts
measureRuntimeCosts(unsigned barrier_ces)
{
    MeasuredCosts costs;
    costs.iter_fetch_us = xdoallFetchMicros(32, true);
    // The lock protocol serializes machine-wide, so its wall cost per
    // iteration grows with the CE count; measuring at 8 CEs yields the
    // per-CE-equivalent cost the Perfect model's fetch/P term expects
    // (at 32 it would fold the full serialization in twice).
    costs.iter_fetch_nosync_us = xdoallFetchMicros(8, false);
    costs.barrier_us = measureGmBarrierMicros(barrier_ces);
    {
        machine::CedarMachine machine;
        LoopRunner runner(machine);
        Tick end = runner.cdoall(
            0, 8, [](unsigned, unsigned, std::deque<cluster::Op> &out) {
                out.push_back(cluster::Op::makeScalar(10));
            });
        costs.cdoall_us = ticksToMicros(end);
    }
    return costs;
}

perfect::MachineCosts
measuredMachineCosts()
{
    MeasuredCosts measured = measureRuntimeCosts();
    perfect::MachineCosts costs;
    costs.iter_fetch_us = measured.iter_fetch_us;
    costs.iter_fetch_nosync_us = measured.iter_fetch_nosync_us;
    costs.barrier_us = measured.barrier_us;
    return costs;
}

} // namespace cedar::runtime
