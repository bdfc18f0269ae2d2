/**
 * @file
 * Reusable OpStream building blocks: a materialized program, a
 * generator-backed stream, and a concatenation combinator.
 */

#ifndef CEDARSIM_RUNTIME_STREAMS_HH
#define CEDARSIM_RUNTIME_STREAMS_HH

#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/op.hh"

namespace cedar::runtime {

using cluster::Op;
using cluster::OpStream;

/** A fixed sequence of ops. */
class ProgramStream : public OpStream
{
  public:
    ProgramStream() = default;
    explicit ProgramStream(std::vector<Op> ops) : _ops(std::move(ops)) {}

    void append(const Op &op) { _ops.push_back(op); }

    bool
    next(Op &op) override
    {
        if (_pos >= _ops.size())
            return false;
        op = _ops[_pos++];
        return true;
    }

    void
    rewind()
    {
        _pos = 0;
    }

    std::size_t size() const { return _ops.size(); }

  private:
    std::vector<Op> _ops;
    std::size_t _pos = 0;
};

/**
 * A stream driven by a refill generator. The generator is asked to push
 * more ops whenever the internal queue runs dry and returns false when
 * it has nothing further to add; sync results are forwarded to the
 * generator (used by self-scheduling protocols).
 */
class GeneratorStream : public OpStream
{
  public:
    using Refill = std::function<bool(std::deque<Op> &)>;
    using SyncHandler = std::function<void(const mem::SyncResult &)>;

    explicit GeneratorStream(Refill refill, SyncHandler on_sync = nullptr)
        : _refill(std::move(refill)), _on_sync(std::move(on_sync))
    {
    }

    bool
    next(Op &op) override
    {
        while (_pending.empty()) {
            if (_done || !_refill(_pending)) {
                _done = true;
                return false;
            }
        }
        op = _pending.front();
        _pending.pop_front();
        return true;
    }

    void
    syncResult(const mem::SyncResult &res) override
    {
        if (_on_sync)
            _on_sync(res);
    }

    /** Push ops from the sync handler (e.g. retry a failed lock). */
    void pushFront(const Op &op) { _pending.push_front(op); }

  private:
    Refill _refill;
    SyncHandler _on_sync;
    std::deque<Op> _pending;
    bool _done = false;
};

} // namespace cedar::runtime

#endif // CEDARSIM_RUNTIME_STREAMS_HH
