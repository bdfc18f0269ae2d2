/**
 * @file
 * Conjugate gradient: functional solver and timed op streams.
 */

#include "cg.hh"

#include <cmath>
#include <deque>
#include <memory>

#include "runtime/launch.hh"
#include "runtime/streams.hh"

namespace cedar::kernels {

using cluster::Op;
using cluster::OpStream;
using cluster::VecSource;

// ---------------------------------------------------------------------
// Functional solver
// ---------------------------------------------------------------------

void
CgProblem::matvec(const std::vector<double> &p,
                  std::vector<double> &q) const
{
    sim_assert(p.size() == n, "matvec operand size mismatch");
    q.assign(n, 0.0);
    for (unsigned i = 0; i < n; ++i) {
        double v = center * p[i];
        if (i >= 1)
            v -= p[i - 1];
        if (i + 1 < n)
            v -= p[i + 1];
        if (i >= m)
            v -= p[i - m];
        if (i + m < n)
            v -= p[i + m];
        q[i] = v;
    }
}

CgSolveResult
cgSolve(const CgProblem &problem, const std::vector<double> &b,
        unsigned max_iters, double tolerance)
{
    unsigned n = problem.n;
    sim_assert(b.size() == n, "rhs size mismatch");
    CgSolveResult result;
    result.x.assign(n, 0.0);
    std::vector<double> r = b;
    std::vector<double> p = b;
    std::vector<double> q(n);

    auto dot = [n](const std::vector<double> &u,
                   const std::vector<double> &v) {
        double s = 0.0;
        for (unsigned i = 0; i < n; ++i)
            s += u[i] * v[i];
        return s;
    };

    double rr = dot(r, r);
    double flops = 2.0 * n;
    double tol2 = tolerance * tolerance;

    for (unsigned it = 0; it < max_iters; ++it) {
        if (rr <= tol2) {
            result.converged = true;
            break;
        }
        problem.matvec(p, q);
        flops += 9.0 * n;
        double pq = dot(p, q);
        flops += 2.0 * n;
        double alpha = rr / pq;
        for (unsigned i = 0; i < n; ++i) {
            result.x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        flops += 4.0 * n;
        double rr_new = dot(r, r);
        flops += 2.0 * n;
        double beta = rr_new / rr;
        for (unsigned i = 0; i < n; ++i)
            p[i] = r[i] + beta * p[i];
        flops += 2.0 * n;
        rr = rr_new;
        ++result.iterations;
    }
    result.converged = result.converged || rr <= tol2;
    result.final_residual = std::sqrt(rr);
    result.flops = flops;
    return result;
}

double
cgIterationFlops(unsigned n)
{
    return 19.0 * n;
}

// ---------------------------------------------------------------------
// Timed kernel
// ---------------------------------------------------------------------

namespace {

/** Per-CE stream of the timed CG: phases separated by GM barriers. */
class CgStream : public OpStream
{
  public:
    struct Shared
    {
        Addr p, q, r, x;
        Addr diag[5];
        Addr barrier_cell;
        Addr dot_cell;
        unsigned n;
        unsigned m;
        unsigned participants;
        unsigned iterations;
        Cycles backoff;
        Cycles phase_startup;
    };

    CgStream(Shared *shared, unsigned lo, unsigned hi, unsigned strip)
        : _sh(shared), _lo(lo), _hi(hi), _strip(strip), _row(lo)
    {
    }

    bool
    next(Op &op) override
    {
        while (_q.empty()) {
            if (!generate())
                return false;
        }
        op = _q.front();
        _q.pop_front();
        return true;
    }

    void
    syncResult(const mem::SyncResult &res) override
    {
        switch (_wait) {
          case Wait::publish:
            // Partial-sum contribution accepted; fall through to the
            // phase barrier.
            _wait = Wait::none;
            startBarrier();
            return;
          case Wait::barrier_add:
          case Wait::barrier_spin: {
            auto value = res.old_value +
                         (_wait == Wait::barrier_add ? 1 : 0);
            auto target = static_cast<std::int32_t>(
                _episode * _sh->participants);
            if (value >= target) {
                _wait = Wait::none;
                return; // passed; next() will generate the next phase
            }
            _q.push_back(Op::makeScalar(_sh->backoff));
            _q.push_back(Op::makeSync(
                _sh->barrier_cell,
                mem::SyncOp{mem::SyncTest::always, 0,
                            mem::SyncOperate::read, 0}));
            _wait = Wait::barrier_spin;
            return;
          }
          case Wait::none:
            panic("unexpected sync result in CG stream");
        }
    }

  private:
    enum class Phase
    {
        matvec,
        dot_pq,
        axpy,
        dot_rr,
        p_update,
        finished,
    };

    enum class Wait
    {
        none,
        publish,
        barrier_add,
        barrier_spin,
    };

    void
    startBarrier()
    {
        ++_episode;
        _q.push_back(Op::makeSync(_sh->barrier_cell,
                                  mem::SyncOp::fetchAndAdd(1)));
        _wait = Wait::barrier_add;
    }

    void
    publishPartial()
    {
        _q.push_back(
            Op::makeSync(_sh->dot_cell, mem::SyncOp::fetchAndAdd(1)));
        _wait = Wait::publish;
    }

    /** Clamp a halo address into the array. */
    Addr
    halo(Addr base, unsigned row, bool minus) const
    {
        if (minus)
            return base + (row >= _sh->m ? row - _sh->m : 0);
        unsigned up = row + _sh->m;
        return base + (up < _sh->n ? up : _sh->n - _strip);
    }

    void
    emitStream(Addr base, double flops_per_elem)
    {
        _q.push_back(Op::makePrefetch(base, _strip));
        for (unsigned o = 0; o < _strip; o += 32) {
            _q.push_back(
                Op::makeVectorFromPrefetch(32, o, flops_per_elem));
        }
    }

    void
    emitStore(Addr base)
    {
        for (unsigned i = 0; i < _strip; ++i)
            _q.push_back(Op::makeGlobalWrite(base + i));
    }

    /** Produce the next batch of ops; false when the stream ends. */
    bool
    generate()
    {
        if (_wait != Wait::none) {
            // Waiting on a sync result; the CE never calls next() here.
            panic("CG stream asked for ops while awaiting a sync");
        }
        switch (_phase) {
          case Phase::matvec:
            if (!_phase_started) {
                _phase_started = true;
                _q.push_back(Op::makeScalar(_sh->phase_startup));
                return true;
            }
            if (_row < _hi) {
                unsigned row = _row;
                _row += _strip;
                // p strip plus its two distant halo strips; the +-1
                // shifts come from registers.
                emitStream(_sh->p + row, 0.0);
                emitStream(halo(_sh->p, row, true), 0.0);
                emitStream(halo(_sh->p, row, false), 0.0);
                // center multiply + 4 chained multiply-adds.
                emitStream(_sh->diag[0] + row, 1.0);
                emitStream(_sh->diag[1] + row, 2.0);
                emitStream(_sh->diag[2] + row, 2.0);
                emitStream(_sh->diag[3] + row, 2.0);
                emitStream(_sh->diag[4] + row, 2.0);
                // register-register shifts
                _q.push_back(
                    Op::makeVector(_strip, VecSource::registers, 0.0));
                _q.push_back(
                    Op::makeVector(_strip, VecSource::registers, 0.0));
                emitStore(_sh->q + row);
                return true;
            }
            nextPhase(Phase::dot_pq, false);
            return true;
          case Phase::dot_pq:
            if (_row < _hi) {
                unsigned row = _row;
                _row += _strip;
                emitStream(_sh->p + row, 1.0);
                emitStream(_sh->q + row, 1.0);
                return true;
            }
            nextPhase(Phase::axpy, true);
            return true;
          case Phase::axpy:
            if (_row < _hi) {
                unsigned row = _row;
                _row += _strip;
                emitStream(_sh->x + row, 0.0);
                emitStream(_sh->p + row, 2.0);
                emitStore(_sh->x + row);
                emitStream(_sh->r + row, 0.0);
                emitStream(_sh->q + row, 2.0);
                emitStore(_sh->r + row);
                return true;
            }
            nextPhase(Phase::dot_rr, false);
            return true;
          case Phase::dot_rr:
            if (_row < _hi) {
                unsigned row = _row;
                _row += _strip;
                emitStream(_sh->r + row, 2.0);
                return true;
            }
            nextPhase(Phase::p_update, true);
            return true;
          case Phase::p_update:
            if (_row < _hi) {
                unsigned row = _row;
                _row += _strip;
                emitStream(_sh->r + row, 0.0);
                emitStream(_sh->p + row, 2.0);
                emitStore(_sh->p + row);
                return true;
            }
            // End of iteration: neighbours must see the new p before
            // the next matvec.
            if (++_iter >= _sh->iterations) {
                _phase = Phase::finished;
                startBarrier();
                return true;
            }
            nextPhase(Phase::matvec, false);
            startBarrier();
            return true;
          case Phase::finished:
            return false;
        }
        return false;
    }

    void
    nextPhase(Phase next, bool with_reduction)
    {
        _phase = next;
        _row = _lo;
        // Each phase is its own parallel loop: pay the loop startup.
        _q.push_back(Op::makeScalar(_sh->phase_startup));
        if (with_reduction)
            publishPartial();
    }

    Shared *_sh;
    unsigned _lo, _hi, _strip;
    unsigned _row;
    Phase _phase = Phase::matvec;
    bool _phase_started = false;
    Wait _wait = Wait::none;
    unsigned _iter = 0;
    unsigned _episode = 0;
    std::deque<Op> _q;
};

} // namespace

KernelResult
runCgTimed(machine::CedarMachine &machine, const CgTimedParams &params)
{
    sim_assert(params.ces >= 1 && params.ces <= machine.numCes(),
               "bad CE count");
    sim_assert(params.n % (params.ces * params.strip) == 0,
               "n must divide evenly over CEs and strips");

    auto shared = std::make_shared<CgStream::Shared>();
    shared->n = params.n;
    shared->m = params.m;
    shared->participants = params.ces;
    shared->iterations = params.iterations;
    shared->backoff = params.barrier_backoff;
    shared->phase_startup = microsToTicks(params.phase_startup_us);
    shared->p = machine.allocGlobalStaggered(params.n);
    shared->q = machine.allocGlobalStaggered(params.n);
    shared->r = machine.allocGlobalStaggered(params.n);
    shared->x = machine.allocGlobalStaggered(params.n);
    for (auto &d : shared->diag)
        d = machine.allocGlobalStaggered(params.n);
    Addr cells = machine.allocGlobal(2);
    shared->barrier_cell = cells;
    shared->dot_cell = cells + 1;
    machine.gm().pokeCell(cells, 0);
    machine.gm().pokeCell(cells + 1, 0);

    unsigned rows_per_ce = params.n / params.ces;
    std::vector<std::unique_ptr<CgStream>> streams;
    for (unsigned c = 0; c < params.ces; ++c) {
        streams.push_back(std::make_unique<CgStream>(
            shared.get(), c * rows_per_ce, (c + 1) * rows_per_ce,
            params.strip));
    }
    std::vector<runtime::CeLaunch> launches;
    for (unsigned c = 0; c < params.ces; ++c)
        launches.push_back({&machine.ceAt(c), streams[c].get(), 0});
    unsigned done = runtime::runCes(machine, launches);
    sim_assert(done == params.ces, "CG incomplete: ", done, " of ",
               params.ces);

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

} // namespace cedar::kernels
