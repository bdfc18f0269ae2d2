/**
 * @file
 * TM kernel implementation: timed stream generation plus a functional
 * reference.
 */

#include "tridiag.hh"

#include <deque>
#include <memory>

#include "runtime/launch.hh"
#include "runtime/streams.hh"

namespace cedar::kernels {

using cluster::Op;
using cluster::VecSource;
using runtime::GeneratorStream;

KernelResult
runTridiag(machine::CedarMachine &machine, const TridiagParams &params)
{
    sim_assert(params.ces >= 1 && params.ces <= machine.numCes(),
               "bad CE count");
    unsigned strip = params.strip;
    sim_assert(params.n % (params.ces * strip) == 0,
               "n must divide evenly over CEs and strips");

    Addr dl = machine.allocGlobalStaggered(params.n);
    Addr d = machine.allocGlobalStaggered(params.n);
    Addr du = machine.allocGlobalStaggered(params.n);
    Addr x = machine.allocGlobalStaggered(params.n);
    Addr y = machine.allocGlobalStaggered(params.n);

    std::vector<std::unique_ptr<cluster::OpStream>> streams;
    unsigned rows_per_ce = params.n / params.ces;

    for (unsigned c = 0; c < params.ces; ++c) {
        unsigned lo = c * rows_per_ce;
        unsigned hi = lo + rows_per_ce;
        auto stream = std::make_unique<GeneratorStream>(
            [dl, d, du, x, y, strip, row = lo,
             hi](std::deque<Op> &out) mutable {
                if (row >= hi)
                    return false;
                // x strip, reused (shifted in registers) for the three
                // diagonal products.
                out.push_back(Op::makePrefetch(x + row, strip));
                for (unsigned o = 0; o < strip; o += 32)
                    out.push_back(Op::makeVectorFromPrefetch(32, o, 0.0));
                // d * x  (multiply)
                out.push_back(Op::makePrefetch(d + row, strip));
                for (unsigned o = 0; o < strip; o += 32)
                    out.push_back(Op::makeVectorFromPrefetch(32, o, 1.0));
                // + dl * x(i-1)  (chained multiply-add)
                out.push_back(Op::makePrefetch(dl + row, strip));
                for (unsigned o = 0; o < strip; o += 32)
                    out.push_back(Op::makeVectorFromPrefetch(32, o, 2.0));
                // + du * x(i+1)  (chained multiply-add)
                out.push_back(Op::makePrefetch(du + row, strip));
                for (unsigned o = 0; o < strip; o += 32)
                    out.push_back(Op::makeVectorFromPrefetch(32, o, 2.0));
                // Register-register shifts of the x strip.
                out.push_back(
                    Op::makeVector(strip, VecSource::registers, 0.0));
                out.push_back(
                    Op::makeVector(strip, VecSource::registers, 0.0));
                // Store y strip (posted).
                for (unsigned i = 0; i < strip; ++i)
                    out.push_back(Op::makeGlobalWrite(y + row + i));
                row += strip;
                return true;
            });
        streams.push_back(std::move(stream));
    }

    std::vector<runtime::CeLaunch> launches;
    for (unsigned c = 0; c < params.ces; ++c)
        launches.push_back({&machine.ceAt(c), streams[c].get(), 0});
    unsigned done = runtime::runCes(machine, launches);
    sim_assert(done == params.ces, "TM incomplete");

    KernelResult result;
    result.ces = params.ces;
    result.start = 0;
    std::vector<unsigned> ces;
    for (unsigned c = 0; c < params.ces; ++c) {
        ces.push_back(c);
        result.end = std::max(result.end, machine.ceAt(c).lastDone());
    }
    result.flops = machine.totalFlops();
    collectPfuStats(machine, ces, result);
    return result;
}

std::vector<double>
tridiagMatvec(const std::vector<double> &dl, const std::vector<double> &d,
              const std::vector<double> &du, const std::vector<double> &x)
{
    std::size_t n = x.size();
    sim_assert(dl.size() == n && d.size() == n && du.size() == n,
               "tridiagonal operand sizes disagree");
    std::vector<double> y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        y[i] = d[i] * x[i];
        if (i > 0)
            y[i] += dl[i] * x[i - 1];
        if (i + 1 < n)
            y[i] += du[i] * x[i + 1];
    }
    return y;
}

double
tridiagFlops(unsigned n)
{
    // 1 multiply + 2 chained multiply-adds per element.
    return 5.0 * n;
}

} // namespace cedar::kernels
