/**
 * @file
 * Prefetch unit implementation.
 */

#include "pfu.hh"

#include <algorithm>

namespace cedar::prefetch {

PrefetchUnit::PrefetchUnit(const std::string &name, Simulation &sim,
                           mem::GlobalMemory &gm, unsigned port,
                           const PfuParams &params)
    : Named(name), _sim(sim), _gm(gm), _port(port), _params(params)
{
    sim_assert(_params.buffer_words > 0, "PFU buffer must be non-empty");
    _arrivals.reserve(_params.buffer_words);
}

void
PrefetchUnit::fire(Addr start, unsigned length, unsigned stride, Tick when)
{
    _mask.clear();
    beginFire(start, length, stride, when);
}

void
PrefetchUnit::fireMasked(Addr start, unsigned length, unsigned stride,
                         const std::vector<bool> &mask, Tick when)
{
    sim_assert(mask.size() == length, "mask must cover the vector: ",
               mask.size(), " bits for ", length, " words");
    _mask = mask;
    beginFire(start, length, stride, when);
}

void
PrefetchUnit::beginFire(Addr start, unsigned length, unsigned stride,
                        Tick when)
{
    sim_assert(length <= _params.buffer_words, "prefetch of ", length,
               " words exceeds the ", _params.buffer_words,
               "-word buffer");
    sim_assert(stride >= 1, "prefetch stride must be at least 1");
    sim_assert(mem::isGlobal(start), "prefetch of non-global address");

    // Starting a new prefetch invalidates the buffer (paper, Section 2).
    _start = start;
    _stride = stride;
    _length = length;
    _next_issue = 0;
    _arrived = 0;
    _arrivals.assign(length, max_tick);
    _request_arrivals.clear();

    _enabled_count = 0;
    for (unsigned i = 0; i < length; ++i)
        if (enabled(i))
            ++_enabled_count;
    skipDisabled();
    if (_monitor)
        _monitor->record(when, Signal::pfu_fire, length);
    if (_enabled_count == 0) {
        // Nothing to fetch: cancel any pending issue of the prefetch
        // this fire invalidated.
        if (_issue_event.scheduled())
            _sim.deschedule(_issue_event);
        return;
    }

    _sim.reschedule(_issue_event, when);
}

void
PrefetchUnit::fireSynthetic(const std::vector<Tick> &arrivals)
{
    sim_assert(arrivals.size() <= _params.buffer_words,
               "synthetic prefetch of ", arrivals.size(),
               " words exceeds the ", _params.buffer_words,
               "-word buffer");
    _mask.clear();
    _start = 0;
    _stride = 1;
    _length = static_cast<unsigned>(arrivals.size());
    _next_issue = _length;
    _arrivals = arrivals;
    _request_arrivals = arrivals;
    _arrived = _length;
    _enabled_count = _length;
    if (_issue_event.scheduled())
        _sim.deschedule(_issue_event);
    answerQueries();
}

bool
PrefetchUnit::enabled(unsigned index) const
{
    return _mask.empty() || _mask[index];
}

void
PrefetchUnit::skipDisabled()
{
    while (_next_issue < _length && !enabled(_next_issue))
        ++_next_issue;
}

bool
PrefetchUnit::canReuse(unsigned first, unsigned count) const
{
    if (count == 0 || first + count > _length)
        return false;
    for (unsigned i = first; i < first + count; ++i)
        if (!enabled(i))
            return false;
    return true;
}

void
PrefetchUnit::issueNext()
{
    unsigned i = _next_issue++;
    Tick now = _sim.curTick();
    Addr addr = _start + static_cast<Addr>(i) * _stride;

    _requests.inc();
    auto res = _gm.read(_port, addr, now);
    Tick in_buffer = res.data_at_port + _params.buffer_fill;
    _arrivals[i] = in_buffer;
    _request_arrivals.push_back(in_buffer);
    ++_arrived;
    _latency.sample(static_cast<double>(in_buffer - now));
    if (_monitor) {
        _monitor->record(in_buffer, Signal::pfu_fill,
                         static_cast<std::int64_t>(in_buffer - now));
    }

    answerQueries();
    if (_arrived == _enabled_count)
        finishBlock();

    skipDisabled();
    if (_next_issue < _length) {
        // Only physical addresses are available to the PFU: crossing into
        // a new 4 KB page suspends issue until the CE supplies the first
        // address of the new page.
        Addr next_addr = _start + static_cast<Addr>(_next_issue) * _stride;
        Tick next = now + _params.issue_interval;
        if (_request_arrivals.size() >= _params.max_outstanding) {
            // Network flow control: wait for an older response before
            // injecting another request.
            Tick window = _request_arrivals[_request_arrivals.size() -
                                            _params.max_outstanding];
            next = std::max(next, window);
        }
        if (mem::pageOf(next_addr) != mem::pageOf(addr)) {
            _page_crossings.inc();
            next += _params.page_cross_penalty;
        }
        _sim.schedule(_issue_event, next);
    }
}

void
PrefetchUnit::finishBlock()
{
    // Table 2's "Interarrival": gaps between successive data returns,
    // i.e. differences of the sorted arrival times within the block.
    if (_request_arrivals.size() < 2)
        return;
    std::vector<Tick> sorted = _request_arrivals;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 1; i < sorted.size(); ++i) {
        _interarrival.sample(
            static_cast<double>(sorted[i] - sorted[i - 1]));
    }
}

Tick
PrefetchUnit::wordArrival(unsigned index) const
{
    sim_assert(index < _length, "word index ", index,
               " outside prefetch of ", _length, " words");
    return _arrivals[index];
}

void
PrefetchUnit::whenConsumed(unsigned first, unsigned count, Tick start,
                           PfuConsumer &consumer)
{
    sim_assert(count > 0, "empty consumption query");
    sim_assert(first + count <= _length, "consumption of [", first, ",",
               first + count, ") outside prefetch of ", _length,
               " words");
    _queries.push_back(
        Query{first + count - 1, first, count, start, &consumer});
    answerQueries();
}

PrefetchUnit::ConsumeEvent *
PrefetchUnit::acquireConsumeEvent()
{
    if (_free_consume) {
        ConsumeEvent *ev = _free_consume;
        _free_consume = ev->_free_next;
        ev->_free_next = nullptr;
        return ev;
    }
    _consume_pool.emplace_back(new ConsumeEvent(*this));
    return _consume_pool.back().get();
}

void
PrefetchUnit::releaseConsumeEvent(ConsumeEvent *ev)
{
    ev->_free_next = _free_consume;
    _free_consume = ev;
}

void
PrefetchUnit::ConsumeEvent::process()
{
    // Release first: the consumer may immediately queue another
    // consumption and is welcome to reuse this node.
    PfuConsumer *consumer = _consumer;
    _consumer = nullptr;
    Tick done = _done;
    _pfu.releaseConsumeEvent(this);
    consumer->pfuConsumed(done);
}

void
PrefetchUnit::answerQueries()
{
    // Answer every query whose words have all arrived. The consumption
    // model is in-order streaming gated by the full/empty bits: each
    // word drains one per cycle but never before it is present; words
    // masked out of the prefetch are skipped.
    for (std::size_t q = 0; q < _queries.size();) {
        Query &query = _queries[q];
        bool all_known = true;
        for (unsigned i = query.first; i <= query.last && all_known;
             ++i) {
            if (enabled(i) && _arrivals[i] == max_tick)
                all_known = false;
        }
        if (!all_known) {
            ++q;
            continue;
        }
        Tick t = query.start;
        for (unsigned i = query.first; i <= query.last; ++i) {
            if (!enabled(i))
                continue;
            Tick available = _arrivals[i] + _params.drain_cycles;
            t = std::max(t + 1, available);
        }
        if (_monitor)
            _monitor->record(t, Signal::pfu_consume, query.count);
        ConsumeEvent *ev = acquireConsumeEvent();
        ev->_consumer = query.consumer;
        ev->_done = t;
        _queries.erase(_queries.begin() +
                       static_cast<std::ptrdiff_t>(q));
        Tick fire_at = std::max(t, _sim.curTick());
        _sim.schedule(*ev, fire_at);
    }
}

void
PrefetchUnit::registerStats(StatRegistry &reg)
{
    reg.addCounter(child("requests"), _requests);
    reg.addCounter(child("page_crossings"), _page_crossings);
    reg.addSample(child("latency"), _latency);
    reg.addSample(child("interarrival"), _interarrival);
}

void
PrefetchUnit::resetStats()
{
    _latency.reset();
    _interarrival.reset();
    _requests.reset();
    _page_crossings.reset();
}

namespace {

std::string
packTicks(const std::vector<Tick> &v)
{
    std::string blob(v.size() * 8, '\0');
    auto *p = reinterpret_cast<unsigned char *>(blob.data());
    for (Tick t : v) {
        for (int i = 0; i < 8; ++i)
            p[i] = static_cast<unsigned char>(t >> (8 * i));
        p += 8;
    }
    return blob;
}

std::vector<Tick>
unpackTicks(const std::string &blob, const std::string &who,
            const std::string &key)
{
    if (blob.size() % 8 != 0) {
        checkpointError(who, "field '" + key + "' is " +
                                 std::to_string(blob.size()) +
                                 " bytes, not a multiple of 8");
    }
    std::vector<Tick> v(blob.size() / 8);
    const auto *p = reinterpret_cast<const unsigned char *>(blob.data());
    for (auto &t : v) {
        t = 0;
        for (int i = 0; i < 8; ++i)
            t |= Tick(p[i]) << (8 * i);
        p += 8;
    }
    return v;
}

} // namespace

void
PrefetchUnit::saveState(CheckpointWriter &w) const
{
    if (_issue_event.scheduled() || !_queries.empty()) {
        checkpointError(name(),
                        "PFU is mid-flight (pending issue or "
                        "unanswered query); checkpoints are legal "
                        "only at quiescent points");
    }
    auto &sec = w.section(name());
    sec.u64("start", _start);
    sec.u64("stride", _stride);
    sec.u64("length", _length);
    sec.u64("next_issue", _next_issue);
    sec.u64("arrived", _arrived);
    sec.u64("enabled_count", _enabled_count);
    sec.bytes("arrivals", packTicks(_arrivals));
    sec.bytes("request_arrivals", packTicks(_request_arrivals));
    std::string mask(_mask.size(), '\0');
    for (std::size_t i = 0; i < _mask.size(); ++i)
        mask[i] = _mask[i] ? 1 : 0;
    sec.bytes("mask", std::move(mask));
    sec.counter("requests", _requests);
    sec.counter("page_crossings", _page_crossings);
    sec.sample("latency", _latency);
    sec.sample("interarrival", _interarrival);
}

void
PrefetchUnit::restoreState(const CheckpointReader &r)
{
    const auto &sec = r.section(name());
    // Restore only what an arming path (beginFire, fireMasked,
    // fireSynthetic) can leave behind: later queries index the
    // arrival and mask buffers by word, up to length.
    unsigned stride = sec.u32("stride");
    unsigned length = sec.u32("length");
    unsigned next_issue = sec.u32("next_issue");
    unsigned arrived = sec.u32("arrived");
    unsigned enabled_count = sec.u32("enabled_count");
    std::vector<Tick> arrivals =
        unpackTicks(sec.bytes("arrivals"), name(), "arrivals");
    const std::string &mask = sec.bytes("mask");
    auto refuse = [&](const std::string &what) {
        checkpointError(name(), what + " (length " +
                                    std::to_string(length) + ")");
    };
    if (length > _params.buffer_words) {
        refuse("prefetch exceeds the " +
               std::to_string(_params.buffer_words) + "-word buffer");
    }
    if (arrivals.size() != length)
        refuse(std::to_string(arrivals.size()) + " arrival ticks");
    if (!mask.empty() && mask.size() != length)
        refuse(std::to_string(mask.size()) + "-byte mask");
    if (next_issue > length || arrived > length || enabled_count > length) {
        refuse("next_issue " + std::to_string(next_issue) + ", arrived " +
               std::to_string(arrived) + ", enabled_count " +
               std::to_string(enabled_count) + " overrun the prefetch");
    }

    if (_issue_event.scheduled())
        _sim.deschedule(_issue_event);
    _queries.clear();
    _start = sec.u64("start");
    _stride = stride;
    _length = length;
    _next_issue = next_issue;
    _arrived = arrived;
    _enabled_count = enabled_count;
    _arrivals = std::move(arrivals);
    _request_arrivals = unpackTicks(sec.bytes("request_arrivals"), name(),
                                    "request_arrivals");
    _mask.assign(mask.size(), false);
    for (std::size_t i = 0; i < mask.size(); ++i)
        _mask[i] = mask[i] != 0;
    sec.counter("requests", _requests);
    sec.counter("page_crossings", _page_crossings);
    sec.sample("latency", _latency);
    sec.sample("interarrival", _interarrival);
}

} // namespace cedar::prefetch
