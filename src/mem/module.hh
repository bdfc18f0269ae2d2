/**
 * @file
 * One global memory module: a bank with deterministic service time,
 * a synchronization processor, and sparse functional storage for the
 * words that synchronization and explicit data traffic actually touch.
 */

#ifndef CEDARSIM_MEM_MODULE_HH
#define CEDARSIM_MEM_MODULE_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/syncops.hh"
#include "sim/checkpoint.hh"
#include "sim/fault.hh"
#include "sim/named.hh"
#include "sim/probes.hh"
#include "sim/statreg.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar::mem {

/** A single interleaved memory module. */
class MemoryModule : public Named
{
  public:
    /**
     * @param name           component name
     * @param access_cycles  bank busy time per ordinary access
     * @param sync_cycles    extra busy time for a sync instruction
     * @param conflict_extra extra busy time when a request finds the
     *                       bank occupied (arbitration/recirculation
     *                       loss; Turner attributes Cedar's observed
     *                       degradation to implementation constraints
     *                       of this kind, and Table 1 calibrates it)
     */
    MemoryModule(const std::string &name, Cycles access_cycles,
                 Cycles sync_cycles, Cycles conflict_extra = 0)
        : Named(name), _access_cycles(access_cycles),
          _sync_cycles(sync_cycles), _conflict_extra(conflict_extra)
    {
    }

    /** Extra bank busy time to scrub a corrected single-bit error. */
    static constexpr Cycles ecc_correct_cycles = 1;
    /** Extra turnaround before a detected double-bit error's re-read. */
    static constexpr Cycles ecc_retry_cycles = 2;

    /**
     * Serve an ordinary read or write that arrives at @p arrival.
     * @return tick at which the data (or ack) leaves the module
     */
    Tick
    access(Tick arrival)
    {
        Tick start = std::max(arrival, _bank_free);
        bool conflicted = start > arrival;
        _wait.sample(static_cast<double>(start - arrival));
        _bank_free = start + _access_cycles +
                     (conflicted ? _conflict_extra : 0) +
                     eccPenalty();
        _accesses.inc();
        if (conflicted)
            _conflicts.inc();
        if (_monitor) {
            auto wait = static_cast<std::int64_t>(start - arrival);
            _monitor->record(start,
                             conflicted ? Signal::module_conflict
                                        : Signal::module_service,
                             wait);
        }
        return _bank_free;
    }

    /**
     * Serve a synchronization instruction: bank access plus the
     * read-modify-write on the sync processor, indivisibly.
     *
     * @param arrival tick the request reaches the module
     * @param addr    target word
     * @param op      the Test-And-Operate instruction
     * @param[out] result functional outcome
     * @param perform false models a synchronization-processor timeout:
     *                the bank and processor are occupied as usual but
     *                the operation is NOT applied and @p result says so
     * @return tick at which the response leaves the module
     */
    Tick
    syncAccess(Tick arrival, Addr addr, const SyncOp &op,
               SyncResult &result, bool perform = true)
    {
        Tick start = std::max(arrival, _bank_free);
        bool conflicted = start > arrival;
        _wait.sample(static_cast<double>(start - arrival));
        _bank_free = start + _access_cycles + _sync_cycles +
                     (conflicted ? _conflict_extra : 0) +
                     eccPenalty();
        _sync_ops.inc();
        if (conflicted)
            _conflicts.inc();
        if (perform) {
            result = applySyncOp(_cells[addr], op);
        } else {
            result = SyncResult{};
            result.timed_out = true;
        }
        if (_monitor)
            _monitor->record(start, Signal::sync_op, result.old_value);
        return _bank_free;
    }

    /** Direct functional peek (debug / test). */
    std::int32_t
    peek(Addr addr) const
    {
        auto it = _cells.find(addr);
        return it == _cells.end() ? 0 : it->second;
    }

    /** Direct functional poke (initialization). */
    void poke(Addr addr, std::int32_t value) { _cells[addr] = value; }

    /** All functional cells, for ECC-rebuilding onto a spare module. */
    const std::unordered_map<Addr, std::int32_t> &cells() const
    {
        return _cells;
    }

    std::uint64_t accessCount() const { return _accesses.value(); }
    std::uint64_t syncOpCount() const { return _sync_ops.value(); }
    std::uint64_t conflictCount() const { return _conflicts.value(); }
    std::uint64_t eccCorrected() const { return _ecc_corrected.value(); }
    std::uint64_t eccRetried() const { return _ecc_retried.value(); }
    const SampleStat &waitStat() const { return _wait; }
    Tick bankFree() const { return _bank_free; }

    /** Post bank-service events to @p m (nullptr detaches). */
    void attachMonitor(MonitorSink *m) { _monitor = m; }

    /** Attach a fault injector: accesses start rolling for ECC events
     *  (nullptr detaches). */
    void attachFaults(FaultInjector *f) { _faults = f; }

    /** Register this module's statistics under its component name. */
    void
    registerStats(StatRegistry &reg)
    {
        reg.addCounter(child("accesses"), _accesses);
        reg.addCounter(child("sync_ops"), _sync_ops);
        reg.addCounter(child("conflicts"), _conflicts);
        reg.addCounter(child("ecc_corrected"), _ecc_corrected);
        reg.addCounter(child("ecc_retried"), _ecc_retried);
        reg.addSample(child("wait"), _wait);
    }

    void
    saveState(CheckpointWriter &w) const
    {
        auto &sec = w.section(name());
        sec.u64("bank_free", _bank_free);
        sec.counter("accesses", _accesses);
        sec.counter("sync_ops", _sync_ops);
        sec.counter("conflicts", _conflicts);
        sec.counter("ecc_corrected", _ecc_corrected);
        sec.counter("ecc_retried", _ecc_retried);
        sec.sample("wait", _wait);
        // Functional cells, sorted by address so the blob (and the
        // snapshot's CRC) is independent of hash-map iteration order.
        std::vector<std::pair<Addr, std::int32_t>> cells(_cells.begin(),
                                                         _cells.end());
        std::sort(cells.begin(), cells.end());
        std::string blob(cells.size() * 12, '\0');
        auto *p = reinterpret_cast<unsigned char *>(blob.data());
        for (const auto &[addr, value] : cells) {
            for (int i = 0; i < 8; ++i)
                p[i] = static_cast<unsigned char>(addr >> (8 * i));
            auto uv = static_cast<std::uint32_t>(value);
            for (int i = 0; i < 4; ++i)
                p[8 + i] = static_cast<unsigned char>(uv >> (8 * i));
            p += 12;
        }
        sec.u64("cell_count", cells.size());
        sec.bytes("cells", std::move(blob));
    }

    void
    restoreState(const CheckpointReader &r)
    {
        const auto &sec = r.section(name());
        _bank_free = sec.u64("bank_free");
        sec.counter("accesses", _accesses);
        sec.counter("sync_ops", _sync_ops);
        sec.counter("conflicts", _conflicts);
        sec.counter("ecc_corrected", _ecc_corrected);
        sec.counter("ecc_retried", _ecc_retried);
        sec.sample("wait", _wait);
        std::uint64_t count = sec.u64("cell_count");
        const std::string &blob = sec.bytes("cells");
        // Divide rather than multiply: count * 12 wraps for a damaged
        // count near 2^64 / 12.
        if (blob.size() % 12 != 0 || blob.size() / 12 != count) {
            checkpointError(name(), "cell blob is " +
                                        std::to_string(blob.size()) +
                                        " bytes but cell_count says " +
                                        std::to_string(count) +
                                        " 12-byte cells");
        }
        _cells.clear();
        _cells.reserve(count);
        const auto *p =
            reinterpret_cast<const unsigned char *>(blob.data());
        for (std::uint64_t c = 0; c < count; ++c, p += 12) {
            Addr addr = 0;
            for (int i = 0; i < 8; ++i)
                addr |= Addr(p[i]) << (8 * i);
            std::uint32_t uv = 0;
            for (int i = 0; i < 4; ++i)
                uv |= std::uint32_t(p[8 + i]) << (8 * i);
            _cells[addr] = static_cast<std::int32_t>(uv);
        }
    }

  private:
    /**
     * Roll the ECC outcome for one bank access: single-bit errors are
     * corrected in place for a scrub penalty; double-bit errors are
     * detected and the whole bank access is repeated.
     */
    Cycles
    eccPenalty()
    {
        if (!_faults)
            return 0;
        switch (_faults->memEccEvent()) {
          case 1:
            _ecc_corrected.inc();
            return ecc_correct_cycles;
          case 2:
            _ecc_retried.inc();
            return ecc_retry_cycles + _access_cycles;
          default:
            return 0;
        }
    }

    Cycles _access_cycles;
    Cycles _sync_cycles;
    Cycles _conflict_extra;
    Tick _bank_free = 0;
    Counter _accesses;
    Counter _sync_ops;
    Counter _conflicts;
    Counter _ecc_corrected;
    Counter _ecc_retried;
    SampleStat _wait;
    MonitorSink *_monitor = nullptr;
    FaultInjector *_faults = nullptr;
    std::unordered_map<Addr, std::int32_t> _cells;
};

} // namespace cedar::mem

#endif // CEDARSIM_MEM_MODULE_HH
