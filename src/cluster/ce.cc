/**
 * @file
 * Computational element state machine.
 */

#include "ce.hh"

#include <algorithm>

namespace cedar::cluster {

ComputationalElement::ComputationalElement(
    const std::string &name, Simulation &sim, mem::GlobalMemory &gm,
    unsigned port, SharedCache &cache, ClusterMemory &cmem,
    BarrierProvider &barriers, const CeParams &params,
    const prefetch::PfuParams &pfu_params)
    : Named(name), _sim(sim), _gm(gm), _port(port), _cache(cache),
      _cmem(cmem), _barriers(barriers), _params(params)
{
    _pfu = std::make_unique<prefetch::PrefetchUnit>(child("pfu"), sim, gm,
                                                    port, pfu_params);
}

void
ComputationalElement::run(OpStream *stream, CeDoneListener *listener)
{
    sim_assert(!busy(), name(), " already running a stream");
    sim_assert(stream, "null op stream");
    _stream = stream;
    _done_listener = listener;
    _have_op = false;
    _waiting = false;
    _gv = GlobalVector{};
    continueAt(_sim.curTick());
}

void
ComputationalElement::continueAt(Tick when)
{
    // The recurring member event replaces the per-yield closure: the
    // CE is a sequential state machine, so at most one continuation is
    // ever pending.
    _waiting = true;
    _sim.schedule(_advance_event, std::max(when, _sim.curTick()));
}

void
ComputationalElement::resumeAdvance()
{
    _waiting = false;
    advance();
}

void
ComputationalElement::resumeSync()
{
    _waiting = false;
    _stream->syncResult(_pending_sync);
    advance();
}

void
ComputationalElement::barrierReleased(Tick)
{
    _waiting = false;
    advance();
}

void
ComputationalElement::pfuConsumed(Tick done)
{
    _flops += _pending_pfu_flops;
    _ops.inc();
    continueAt(done);
}

void
ComputationalElement::streamDone()
{
    _stream = nullptr;
    _last_done = _sim.curTick();
    // A stream running to completion is forward progress.
    _sim.noteProgress();
    if (_done_listener) {
        CeDoneListener *listener = _done_listener;
        _done_listener = nullptr;
        listener->ceDone();
    }
}

void
ComputationalElement::finishOp(double flops)
{
    _flops += flops;
    _ops.inc();
    _have_op = false;
}

void
ComputationalElement::globalVectorStep()
{
    Tick now = _sim.curTick();
    // Retire arrivals that have landed.
    auto &out = _gv.outstanding;
    auto landed = std::remove_if(out.begin(), out.end(),
                                 [now](Tick t) { return t <= now; });
    _gv.completed +=
        static_cast<unsigned>(std::distance(landed, out.end()));
    out.erase(landed, out.end());

    // Issue new requests into free outstanding slots.
    while (out.size() < _params.max_outstanding &&
           _gv.issued < _op.length) {
        Addr addr =
            _op.addr + static_cast<Addr>(_gv.issued) * _op.stride;
        auto res = _gm.read(_port, addr, now + _params.issue_cycles);
        out.push_back(res.data_at_port + _params.drain_cycles);
        ++_gv.issued;
    }

    if (_gv.completed == _op.length) {
        // Stream complete; the final element still spends one pipeline
        // cycle being consumed.
        _gv.active = false;
        finishOp(_op.flops);
        continueAt(now + 1);
        return;
    }
    sim_assert(!out.empty(), "global vector stalled with nothing inflight");
    continueAt(*std::min_element(out.begin(), out.end()));
}

void
ComputationalElement::advance()
{
    if (_waiting)
        return;
    unsigned processed = 0;
    while (true) {
        if (++processed > _params.ops_per_event) {
            // Yield to the event queue to keep same-tick bursts bounded.
            continueAt(_sim.curTick());
            return;
        }
        if (_gv.active) {
            globalVectorStep();
            return;
        }
        if (!_have_op) {
            if (!_stream->next(_op)) {
                streamDone();
                return;
            }
            _have_op = true;
        }

        Tick now = _sim.curTick();
        switch (_op.kind) {
          case OpKind::scalar: {
            Cycles c = _op.cycles;
            finishOp(_op.flops);
            if (c > 0) {
                continueAt(now + c);
                return;
            }
            break;
          }
          case OpKind::vector: {
            Cycles setup = _params.vector_startup;
            // Cache-path instructions pay the register-memory issue and
            // address-generation overhead; on the global paths it hides
            // under the much longer memory latency.
            if (_op.source == VecSource::cache ||
                _op.source == VecSource::cluster_mem) {
                setup += _params.vector_mem_overhead;
            }
            Tick pipe_done = now + setup + _op.length;
            switch (_op.source) {
              case VecSource::registers: {
                finishOp(_op.flops);
                continueAt(pipe_done);
                return;
              }
              case VecSource::cache:
              case VecSource::cluster_mem: {
                auto res = _cache.streamAccess(
                    _op.addr, _op.length, _op.stride, _op.write_stream,
                    now + setup);
                Tick done = std::max(pipe_done, res.done);
                if (_op.words_per_elem > 1) {
                    // Secondary streams (e.g. a simultaneous store) use
                    // additional cache bandwidth.
                    Tick extra = _cache.bandwidth().acquire(
                        now + setup,
                        std::uint64_t(_op.length) *
                            (_op.words_per_elem - 1));
                    done = std::max(done, extra);
                }
                finishOp(_op.flops);
                continueAt(done);
                return;
              }
              case VecSource::global_direct: {
                _gv = GlobalVector{};
                _gv.active = true;
                // Startup elapses before the first request issues.
                continueAt(now + setup);
                return;
              }
              case VecSource::prefetch_buffer: {
                _pending_pfu_flops = _op.flops;
                unsigned first = _op.buf_offset;
                unsigned count = _op.length;
                _have_op = false;
                _pfu->whenConsumed(first, count, now + setup, *this);
                return;
              }
            }
            panic("unhandled vector source");
          }
          case OpKind::global_read: {
            auto res =
                _gm.read(_port, _op.addr, now + _params.issue_cycles);
            finishOp(_op.flops);
            continueAt(res.data_at_port + _params.drain_cycles);
            return;
          }
          case OpKind::global_write: {
            // Posted: occupies the path but never stalls the CE.
            _gm.write(_port, _op.addr, now + _params.issue_cycles);
            finishOp(_op.flops);
            continueAt(now + 1);
            return;
          }
          case OpKind::prefetch: {
            Cycles arm = _pfu->params().arm_fire_cycles;
            _pfu->fire(_op.addr, _op.length, _op.stride, now + arm);
            finishOp(0.0);
            continueAt(now + arm);
            return;
          }
          case OpKind::sync: {
            auto res =
                _gm.sync(_port, _op.addr, _op.sync_op,
                         now + _params.issue_cycles);
            _pending_sync = res.sync;
            finishOp(_op.flops);
            Tick ready = res.data_at_port + _params.drain_cycles;
            _waiting = true;
            _sim.schedule(_sync_event, ready);
            return;
          }
          case OpKind::coherence: {
            // Software coherence: drain dirty lines to cluster memory
            // and invalidate, so the next global copy is re-read.
            Tick done = _cache.flushAll(now);
            finishOp(0.0);
            continueAt(std::max(done, now + 1));
            return;
          }
          case OpKind::barrier: {
            unsigned id = _op.barrier_id;
            finishOp(0.0);
            _waiting = true;
            _barriers.barrier(id).arrive(now, *this);
            return;
          }
        }
    }
}

void
ComputationalElement::saveState(CheckpointWriter &w) const
{
    if (_stream || _have_op || _waiting || _gv.active) {
        checkpointError(name(),
                        "CE is mid-stream; checkpoints are legal only "
                        "at quiescent points (between runtime phases)");
    }
    auto &sec = w.section(name());
    sec.f64("flops", _flops);
    sec.counter("ops", _ops);
    sec.u64("last_done", _last_done);
    _pfu->saveState(w);
}

void
ComputationalElement::restoreState(const CheckpointReader &r)
{
    const auto &sec = r.section(name());
    _flops = sec.f64("flops");
    sec.counter("ops", _ops);
    _last_done = sec.u64("last_done");
    _stream = nullptr;
    _done_listener = nullptr;
    _have_op = false;
    _waiting = false;
    _gv = GlobalVector{};
    _pfu->restoreState(r);
}

} // namespace cedar::cluster
