/**
 * @file
 * Shared cache implementation: set-associative tags with LRU
 * replacement, write-back of dirty victims, and reservation timing for
 * the interleaved data paths.
 */

#include "cache.hh"

namespace cedar::cluster {

SharedCache::SharedCache(const std::string &name,
                         const SharedCacheParams &params,
                         ClusterMemory &cmem)
    : Named(name), _params(params), _cmem(cmem),
      _bandwidth(params.words_per_cycle, params.contention_penalty_pct)
{
    sim_assert(_params.line_bytes % bytes_per_word == 0,
               "line size must be a whole number of words");
    _words_per_line = _params.line_bytes / bytes_per_word;
    std::uint64_t lines =
        std::uint64_t(_params.capacity_kb) * 1024 / _params.line_bytes;
    sim_assert(lines % _params.ways == 0,
               "line count must divide evenly into ways");
    _num_sets = static_cast<unsigned>(lines / _params.ways);
    _sets.assign(_num_sets, std::vector<Way>(_params.ways));
}

bool
SharedCache::touchLine(Addr line_addr, bool write)
{
    auto &set = _sets[line_addr % _num_sets];
    ++_lru_clock;
    for (Way &w : set) {
        if (w.valid && w.tag == line_addr) {
            w.lru = _lru_clock;
            w.dirty = w.dirty || write;
            return true;
        }
    }
    // Miss: pick the LRU way (preferring invalid ones).
    Way *victim = &set[0];
    for (Way &w : set) {
        if (!w.valid) {
            victim = &w;
            break;
        }
        if (w.lru < victim->lru)
            victim = &w;
    }
    if (victim->valid && victim->dirty) {
        _writebacks.inc();
        _pending_writeback_words += _words_per_line;
    }
    victim->tag = line_addr;
    victim->valid = true;
    victim->dirty = write;
    victim->lru = _lru_clock;
    return false;
}

CacheAccessResult
SharedCache::streamAccess(Addr start, unsigned count, unsigned stride,
                          bool write, Tick ready)
{
    sim_assert(stride >= 1, "stride must be at least 1");
    CacheAccessResult result;
    std::uint64_t miss_lines = 0;
    Addr prev_line = ~Addr(0);
    for (unsigned i = 0; i < count; ++i) {
        Addr line = (start + static_cast<Addr>(i) * stride) /
                    _words_per_line;
        if (line == prev_line) {
            // Same line as the previous element: only the first touch
            // pays the tag check; the word still uses bandwidth below.
            ++result.hit_words;
            continue;
        }
        prev_line = line;
        if (touchLine(line, write)) {
            _hits.inc();
            ++result.hit_words;
        } else {
            _misses.inc();
            ++result.miss_words;
            ++miss_lines;
        }
    }

    // Data path: every referenced word crosses the cache's interleaved
    // banks at the aggregate rate.
    Tick data_done = _bandwidth.acquire(ready, count);

    // Misses fill whole lines from cluster memory. The cache is
    // lockup-free with two outstanding misses per CE, so fills pipeline:
    // the latency is paid once per burst and the words stream at
    // cluster-memory bandwidth. Dirty victims write back first.
    Tick miss_done = ready;
    if (miss_lines > 0) {
        std::uint64_t fill_words = miss_lines * _words_per_line;
        std::uint64_t wb_words = _pending_writeback_words;
        _pending_writeback_words = 0;
        miss_done = _cmem.transfer(ready, fill_words + wb_words);
        if (_monitor) {
            _monitor->record(ready, Signal::cache_miss,
                             static_cast<std::int64_t>(miss_lines));
            _monitor->record(miss_done, Signal::cache_fill,
                             static_cast<std::int64_t>(fill_words));
            if (wb_words > 0) {
                _monitor->record(miss_done, Signal::cache_writeback,
                                 static_cast<std::int64_t>(wb_words));
            }
        }
    }

    result.done = std::max(data_done, miss_done);
    return result;
}

void
SharedCache::warm(Addr start, std::uint64_t words)
{
    for (Addr a = start / _words_per_line;
         a <= (start + (words ? words - 1 : 0)) / _words_per_line; ++a) {
        touchLine(a, false);
    }
    _pending_writeback_words = 0;
}

Tick
SharedCache::flushAll(Tick ready)
{
    std::uint64_t dirty_words = _pending_writeback_words;
    for (const auto &set : _sets)
        for (const Way &w : set)
            if (w.valid && w.dirty)
                dirty_words += _words_per_line;
    Tick done = ready;
    if (dirty_words > 0) {
        _writebacks.inc(dirty_words / _words_per_line);
        done = _cmem.transfer(ready, dirty_words);
        if (_monitor) {
            _monitor->record(done, Signal::cache_writeback,
                             static_cast<std::int64_t>(dirty_words));
        }
    }
    invalidateAll();
    return done;
}

void
SharedCache::invalidateAll()
{
    for (auto &set : _sets)
        for (Way &w : set)
            w = Way{};
    _pending_writeback_words = 0;
}

bool
SharedCache::probe(Addr addr) const
{
    Addr line = addr / _words_per_line;
    const auto &set = _sets[line % _num_sets];
    for (const Way &w : set)
        if (w.valid && w.tag == line)
            return true;
    return false;
}

void
SharedCache::registerStats(StatRegistry &reg)
{
    reg.addCounter(child("hits"), _hits);
    reg.addCounter(child("misses"), _misses);
    reg.addCounter(child("writebacks"), _writebacks);
}

void
SharedCache::resetStats()
{
    _hits.reset();
    _misses.reset();
    _writebacks.reset();
    _bandwidth.resetStats();
}

void
SharedCache::saveState(CheckpointWriter &w) const
{
    auto &sec = w.section(name());
    sec.u64("lru_clock", _lru_clock);
    sec.u64("pending_writeback_words", _pending_writeback_words);
    sec.counter("hits", _hits);
    sec.counter("misses", _misses);
    sec.counter("writebacks", _writebacks);
    _bandwidth.saveFields(sec, "bandwidth");
    // Tag store as one blob: 17 bytes per way (tag, lru, flag bits),
    // sets outer, ways inner — the geometry is config-determined.
    std::string blob(std::size_t(_num_sets) * _params.ways * 17, '\0');
    auto *p = reinterpret_cast<unsigned char *>(blob.data());
    for (const auto &set : _sets) {
        for (const Way &way : set) {
            for (int i = 0; i < 8; ++i)
                p[i] = static_cast<unsigned char>(way.tag >> (8 * i));
            for (int i = 0; i < 8; ++i)
                p[8 + i] = static_cast<unsigned char>(way.lru >> (8 * i));
            p[16] = (way.valid ? 1 : 0) | (way.dirty ? 2 : 0);
            p += 17;
        }
    }
    sec.bytes("tag_store", std::move(blob));
}

void
SharedCache::restoreState(const CheckpointReader &r)
{
    const auto &sec = r.section(name());
    _lru_clock = sec.u64("lru_clock");
    _pending_writeback_words = sec.u64("pending_writeback_words");
    sec.counter("hits", _hits);
    sec.counter("misses", _misses);
    sec.counter("writebacks", _writebacks);
    _bandwidth.restoreFields(sec, "bandwidth");
    const std::string &blob = sec.bytes("tag_store");
    std::size_t want = std::size_t(_num_sets) * _params.ways * 17;
    if (blob.size() != want) {
        checkpointError(name(),
                        "tag store blob is " +
                            std::to_string(blob.size()) +
                            " bytes, geometry needs " +
                            std::to_string(want) +
                            " (cache configuration mismatch?)");
    }
    const auto *p = reinterpret_cast<const unsigned char *>(blob.data());
    for (auto &set : _sets) {
        for (Way &way : set) {
            way.tag = 0;
            for (int i = 0; i < 8; ++i)
                way.tag |= Addr(p[i]) << (8 * i);
            way.lru = 0;
            for (int i = 0; i < 8; ++i)
                way.lru |= std::uint64_t(p[8 + i]) << (8 * i);
            way.valid = (p[16] & 1) != 0;
            way.dirty = (p[16] & 2) != 0;
            p += 17;
        }
    }
}

} // namespace cedar::cluster
