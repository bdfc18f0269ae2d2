/**
 * @file
 * Interval telemetry sampler and sinks.
 */

#include "telemetry.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace cedar {

namespace {

/**
 * Distribution summary leaves are not additive, so per-interval deltas
 * and rates are only emitted for counting leaves.
 */
bool
isAdditiveLeaf(const std::string &name)
{
    auto ends_with = [&name](const char *suffix) {
        std::string suf(suffix);
        return name.size() >= suf.size() &&
               name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
    };
    return !ends_with(".mean") && !ends_with(".min") &&
           !ends_with(".max") && !ends_with(".stddev");
}

} // namespace

FileTelemetrySink::FileTelemetrySink(const std::string &path)
    : _path(path)
{
    _file = std::fopen(path.c_str(), "w");
    if (!_file)
        throw std::runtime_error("telemetry: cannot open '" + path + "'");
}

FileTelemetrySink::~FileTelemetrySink()
{
    if (_file)
        std::fclose(_file);
}

void
FileTelemetrySink::write(const std::string &line)
{
    std::fwrite(line.data(), 1, line.size(), _file);
    std::fputc('\n', _file);
}

std::string
RingTelemetrySink::text() const
{
    std::string out;
    for (const auto &line : _lines) {
        out += line;
        out += '\n';
    }
    return out;
}

TelemetrySampler::TelemetrySampler(const std::string &name,
                                   Simulation &sim,
                                   const StatRegistry &reg, Tick interval,
                                   TelemetrySink &sink)
    : _name(name), _sim(sim), _reg(reg), _interval(interval), _sink(sink)
{
    sim_assert(_interval > 0, "telemetry interval must be positive");
}

TelemetrySampler::~TelemetrySampler()
{
    // Emit the closing record even when the run was cut short by an
    // error unwind; ~Event deschedules the pending sample for us.
    if (_started)
        finish();
}

void
TelemetrySampler::start()
{
    if (_started)
        return;
    _started = true;
    // Baseline snapshot so the first interval's deltas cover exactly
    // [start, start + interval).
    _prev = _reg.snapshot();
    _last_tick = _sim.curTick();
    _last_events = _sim.eventsExecuted();
    _sim.schedule(_event, _sim.curTick() + _interval);
}

void
TelemetrySampler::resume()
{
    if (!_started) {
        start();
        return;
    }
    _finished = false;
    if (!_event.scheduled())
        _sim.schedule(_event, _sim.curTick() + _interval);
}

void
TelemetrySampler::sampleNow(const char *label)
{
    emitRecord(label, false);
}

void
TelemetrySampler::finish()
{
    if (_finished)
        return;
    _finished = true;
    emitRecord("final", true);
}

void
TelemetrySampler::fire()
{
    // The sampler's own event was the queue top; if nothing else is
    // pending the run is over — close out instead of rescheduling so
    // an armed sampler never keeps a drained simulation alive.
    if (_sim.empty()) {
        finish();
        return;
    }
    emitRecord("interval", false);
    _sim.schedule(_event, _sim.curTick() + _interval);
}

void
TelemetrySampler::emitRecord(const char *kind, bool final_record)
{
    std::map<std::string, double> cur = _reg.snapshot();
    const Tick now = _sim.curTick();
    const Tick window = now - _last_tick;
    const std::uint64_t events = _sim.eventsExecuted();
    const double window_s = ticksToSeconds(window);

    std::string line;
    line.reserve(4096);
    line += "{\"v\":1,\"component\":\"";
    line += jsonEscape(_name);
    line += "\",\"kind\":\"";
    line += jsonEscape(kind);
    line += "\",\"seq\":";
    line += jsonNumber(static_cast<double>(_seq));
    line += ",\"tick\":";
    line += jsonNumber(static_cast<double>(now));
    line += ",\"window\":";
    line += jsonNumber(static_cast<double>(window));
    line += ",\"events\":";
    line += jsonNumber(static_cast<double>(events));
    line += ",\"window_events\":";
    line += jsonNumber(static_cast<double>(events - _last_events));
    line += ",\"queue\":";
    line += jsonNumber(static_cast<double>(_sim.queueDepth()));

    line += ",\"stats\":{";
    bool first = true;
    for (const auto &[name, value] : cur) {
        if (!first)
            line += ',';
        first = false;
        line += '"';
        line += jsonEscape(name);
        line += "\":";
        line += jsonNumber(value);
    }
    line += '}';

    // Deltas (and simulated-time rates) only for additive leaves that
    // actually moved, so quiet intervals stay small.
    line += ",\"delta\":{";
    first = true;
    std::vector<std::pair<const std::string *, double>> moved;
    for (const auto &[name, value] : cur) {
        if (!isAdditiveLeaf(name))
            continue;
        auto it = _prev.find(name);
        double d = value - (it == _prev.end() ? 0.0 : it->second);
        if (d == 0.0)
            continue;
        moved.emplace_back(&name, d);
        if (!first)
            line += ',';
        first = false;
        line += '"';
        line += jsonEscape(name);
        line += "\":";
        line += jsonNumber(d);
    }
    line += '}';

    line += ",\"rate\":{";
    first = true;
    if (window_s > 0.0) {
        for (const auto &[name, d] : moved) {
            if (!first)
                line += ',';
            first = false;
            line += '"';
            line += jsonEscape(*name);
            line += "\":";
            line += jsonNumber(d / window_s);
        }
    }
    line += '}';

    if (final_record)
        line += ",\"final\":true";
    line += '}';

    _sink.write(line);
    ++_records;
    ++_seq;
    _prev = std::move(cur);
    _last_tick = now;
    _last_events = events;
}

void
TelemetrySampler::saveState(CheckpointWriter &w) const
{
    if (_event.scheduled()) {
        checkpointError(_name,
                        "sampler event still scheduled; checkpoints "
                        "are legal only at quiescent points");
    }
    auto &sec = w.section(_name + ".telemetry");
    sec.u64("interval", _interval);
    sec.u64("seq", _seq);
    sec.u64("records", _records);
    sec.u64("last_tick", _last_tick);
    sec.u64("last_events", _last_events);
    sec.u64("started", _started ? 1 : 0);
    sec.u64("finished", _finished ? 1 : 0);
    sec.u64("prev_count", _prev.size());
    std::size_t i = 0;
    for (const auto &[key, value] : _prev) {
        std::string k = "prev" + std::to_string(i++);
        sec.str(k + ".key", key);
        sec.f64(k + ".value", value);
    }
}

void
TelemetrySampler::restoreState(const CheckpointReader &r)
{
    const auto &sec = r.section(_name + ".telemetry");
    if (sec.u64("interval") != _interval) {
        checkpointError(_name,
                        "snapshot telemetry interval " +
                            std::to_string(sec.u64("interval")) +
                            " does not match this sampler's " +
                            std::to_string(_interval));
    }
    if (_event.scheduled())
        _sim.deschedule(_event);
    _seq = sec.u64("seq");
    _records = sec.u64("records");
    _last_tick = sec.u64("last_tick");
    _last_events = sec.u64("last_events");
    _started = sec.u64("started") != 0;
    _finished = sec.u64("finished") != 0;
    _prev.clear();
    std::uint64_t count = sec.u64("prev_count");
    for (std::uint64_t i = 0; i < count; ++i) {
        std::string k = "prev" + std::to_string(i);
        _prev[sec.str(k + ".key")] = sec.f64(k + ".value");
    }
}

} // namespace cedar
