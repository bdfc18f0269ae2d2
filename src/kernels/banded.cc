/**
 * @file
 * Banded matvec implementation.
 */

#include "banded.hh"

#include <deque>
#include <memory>

#include "runtime/launch.hh"
#include "runtime/streams.hh"

namespace cedar::kernels {

using cluster::Op;
using cluster::VecSource;
using runtime::GeneratorStream;

double
bandedFlops(unsigned n, unsigned bandwidth)
{
    sim_assert(bandwidth % 2 == 1, "bandwidth must be odd");
    // Interior rows: bandwidth multiplies + (bandwidth - 1) adds; edge
    // effects are negligible for the sizes studied and we use the
    // interior count as the HPM-style convention.
    return static_cast<double>(2 * bandwidth - 1) * n;
}

KernelResult
runBanded(machine::CedarMachine &machine, const BandedParams &params)
{
    sim_assert(params.ces >= 1 && params.ces <= machine.numCes(),
               "bad CE count");
    sim_assert(params.bandwidth % 2 == 1, "bandwidth must be odd");
    sim_assert(params.n % (params.ces * params.strip) == 0,
               "n must divide evenly over CEs and strips");

    unsigned b = params.bandwidth;
    unsigned strip = params.strip;

    std::vector<Addr> diagonals(b);
    for (auto &d : diagonals)
        d = machine.allocGlobalStaggered(params.n);
    Addr x = machine.allocGlobalStaggered(params.n);
    Addr y = machine.allocGlobalStaggered(params.n);

    std::vector<std::unique_ptr<cluster::OpStream>> streams;
    unsigned rows_per_ce = params.n / params.ces;
    double flops_per_elem =
        bandedFlops(params.n, b) / static_cast<double>(params.n);

    for (unsigned c = 0; c < params.ces; ++c) {
        unsigned lo = c * rows_per_ce;
        unsigned hi = lo + rows_per_ce;
        auto stream = std::make_unique<GeneratorStream>(
            [diagonals, x, y, strip, b, flops_per_elem, row = lo,
             hi](std::deque<Op> &out) mutable {
                if (row >= hi)
                    return false;
                // x strip; the +-1 shifts reuse it from registers, but
                // the wider +-k offsets of an 11-band need extra strips
                // (modeled as one additional x stream per 4 bands).
                out.push_back(Op::makePrefetch(x + row, strip));
                for (unsigned o = 0; o < strip; o += 32)
                    out.push_back(Op::makeVectorFromPrefetch(32, o, 0.0));
                for (unsigned extra = 0; extra < b / 4; ++extra) {
                    out.push_back(Op::makePrefetch(x + row, strip));
                    for (unsigned o = 0; o < strip; o += 32)
                        out.push_back(
                            Op::makeVectorFromPrefetch(32, o, 0.0));
                }
                // One chained multiply(-add) per diagonal stream; the
                // flop share is spread evenly across the b streams.
                for (unsigned d = 0; d < b; ++d) {
                    out.push_back(
                        Op::makePrefetch(diagonals[d] + row, strip));
                    for (unsigned o = 0; o < strip; o += 32) {
                        out.push_back(Op::makeVectorFromPrefetch(
                            32, o, flops_per_elem / b));
                    }
                }
                // Register-register shifts for the near diagonals.
                out.push_back(
                    Op::makeVector(strip, VecSource::registers, 0.0));
                out.push_back(
                    Op::makeVector(strip, VecSource::registers, 0.0));
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
    sim_assert(done == params.ces, "banded matvec incomplete");

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
bandedMatvec(const std::vector<std::vector<double>> &diagonals,
             const std::vector<double> &x)
{
    sim_assert(diagonals.size() % 2 == 1, "bandwidth must be odd");
    std::size_t n = x.size();
    int half = static_cast<int>(diagonals.size()) / 2;
    std::vector<double> y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (int d = -half; d <= half; ++d) {
            auto j = static_cast<std::ptrdiff_t>(i) + d;
            if (j < 0 || j >= static_cast<std::ptrdiff_t>(n))
                continue;
            const auto &diag =
                diagonals[static_cast<std::size_t>(d + half)];
            sim_assert(diag.size() == n, "diagonal size mismatch");
            y[i] += diag[i] * x[static_cast<std::size_t>(j)];
        }
    }
    return y;
}

} // namespace cedar::kernels
