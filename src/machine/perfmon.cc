/**
 * @file
 * Performance-monitor arithmetic, event routing, and trace export.
 */

#include "perfmon.hh"

#include <cstdio>

namespace cedar::machine {

double
Histogrammer::mean() const
{
    double weighted = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < _counters.size(); ++i) {
        weighted += static_cast<double>(i) * _counters[i];
        total += _counters[i];
    }
    return total > 0.0 ? weighted / total : 0.0;
}

PerfMonitor::PerfMonitor(const std::string &name, unsigned cascade)
    : Named(name),
      _tracer(child("tracer"), cascade),
      _net_queueing(child("net_queueing")),
      _module_wait(child("module_wait")),
      _pfu_latency(child("pfu_latency"))
{
}

void
PerfMonitor::record(Tick when, Signal signal, std::int64_t value)
{
    if (!_tracer.running())
        return;
    _tracer.post(when, static_cast<std::uint32_t>(signal), value);
    _signal_counts[static_cast<std::uint32_t>(signal)].inc();
    // Histogrammers sit on the signals whose value is a duration the
    // paper's study histogrammed.
    switch (signal) {
      case Signal::net_dequeue:
        _net_queueing.sample(static_cast<std::size_t>(value));
        break;
      case Signal::module_service:
      case Signal::module_conflict:
        _module_wait.sample(static_cast<std::size_t>(value));
        break;
      case Signal::pfu_fill:
        _pfu_latency.sample(static_cast<std::size_t>(value));
        break;
      default:
        break;
    }
}

std::uint64_t
PerfMonitor::signalCount(Signal s) const
{
    return _signal_counts[static_cast<std::uint32_t>(s)].value();
}

void
PerfMonitor::registerStats(StatRegistry &reg)
{
    reg.addScalar(child("events"), [this] {
        return static_cast<double>(_tracer.events().size());
    });
    reg.addScalar(child("dropped"), [this] {
        return static_cast<double>(_tracer.droppedCount());
    });
    reg.addScalar(child("net_queueing_mean"),
                  [this] { return _net_queueing.mean(); });
    reg.addScalar(child("module_wait_mean"),
                  [this] { return _module_wait.mean(); });
    reg.addScalar(child("pfu_latency_mean"),
                  [this] { return _pfu_latency.mean(); });
    for (std::uint32_t s = 0; s < num_signals; ++s) {
        reg.addCounter(child(std::string("signal.") +
                             signalName(static_cast<Signal>(s))),
                       _signal_counts[s]);
    }
}

void
PerfMonitor::clear()
{
    _tracer.clear();
    _net_queueing.clear();
    _module_wait.clear();
    _pfu_latency.clear();
    for (auto &c : _signal_counts)
        c.reset();
}

ChromeTraceStream::ChromeTraceStream(const std::string &path)
{
    _file = std::fopen(path.c_str(), "w");
    if (!_file)
        return;
    _ok = true;
    std::fputs("[", _file);
    for (std::uint32_t s = 0; s < num_signals; ++s)
        tidOf(signalCategory(static_cast<Signal>(s)));
    for (std::size_t i = 0; i < _categories.size(); ++i) {
        std::fprintf(_file,
                     "%s\n{\"name\": \"thread_name\", \"ph\": \"M\", "
                     "\"pid\": 0, \"tid\": %zu, "
                     "\"args\": {\"name\": \"%s\"}}",
                     _first ? "" : ",", i, _categories[i]);
        _first = false;
    }
}

ChromeTraceStream::~ChromeTraceStream()
{
    close();
}

int
ChromeTraceStream::tidOf(const char *category)
{
    for (std::size_t i = 0; i < _categories.size(); ++i) {
        if (std::string(_categories[i]) == category)
            return static_cast<int>(i);
    }
    _categories.push_back(category);
    return static_cast<int>(_categories.size() - 1);
}

void
ChromeTraceStream::post(Tick when, std::uint32_t signal,
                        std::int64_t value)
{
    if (!_ok || _closed || signal >= num_signals)
        return;
    auto sig = static_cast<Signal>(signal);
    char ts[40];
    std::snprintf(ts, sizeof(ts), "%.4f", ticksToMicros(when));
    if (std::fprintf(_file,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ph\": \"i\", \"s\": \"t\", \"ts\": %s, "
                     "\"pid\": 0, \"tid\": %d, "
                     "\"args\": {\"value\": %lld}}",
                     _first ? "" : ",", signalName(sig),
                     signalCategory(sig), ts, tidOf(signalCategory(sig)),
                     static_cast<long long>(value)) < 0) {
        _ok = false;
    }
    _first = false;
    ++_events_written;
}

std::size_t
ChromeTraceStream::drain(const EventTracer &tracer, std::size_t from_index)
{
    const auto &events = tracer.events();
    for (std::size_t i = from_index; i < events.size(); ++i)
        post(events[i].when, events[i].signal, events[i].value);
    return events.size();
}

bool
ChromeTraceStream::close()
{
    if (_closed)
        return _ok;
    _closed = true;
    if (!_file)
        return false;
    if (std::fputs("\n]\n", _file) < 0)
        _ok = false;
    if (std::fclose(_file) != 0)
        _ok = false;
    _file = nullptr;
    return _ok;
}

} // namespace cedar::machine
