/**
 * @file
 * The Cedar performance-monitoring hardware.
 *
 * Cedar relied on external hardware to collect time-stamped event
 * traces and histograms of hardware signals: each event tracer holds
 * one million events and each histogrammer 64K 32-bit counters, and
 * either can be cascaded to capture more. Programs can also post
 * software events. The simulator equivalents preserve those capacity
 * semantics so experiments hit the same limits the real monitors had.
 */

#ifndef CEDARSIM_MACHINE_PERFMON_HH
#define CEDARSIM_MACHINE_PERFMON_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/named.hh"
#include "sim/probes.hh"
#include "sim/statreg.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar::machine {

/** One time-stamped monitored event. */
struct TraceEvent
{
    Tick when;
    std::uint32_t signal;
    std::int64_t value;
};

/** A hardware event tracer: 1M events, cascadable. */
class EventTracer : public Named
{
  public:
    static constexpr std::size_t events_per_unit = 1u << 20;

    /**
     * @param name     component name
     * @param cascade  number of tracer units chained together
     */
    explicit EventTracer(const std::string &name, unsigned cascade = 1)
        : Named(name), _capacity(events_per_unit * cascade)
    {
        sim_assert(cascade >= 1, "cascade must be at least 1");
    }

    /** Record an event; silently dropped once full (as in hardware). */
    void
    post(Tick when, std::uint32_t signal, std::int64_t value = 0)
    {
        if (!_running)
            return;
        if (_events.size() >= _capacity) {
            _dropped.inc();
            return;
        }
        _events.push_back(TraceEvent{when, signal, value});
    }

    void start() { _running = true; }
    void stopTracer() { _running = false; }
    bool running() const { return _running; }

    const std::vector<TraceEvent> &events() const { return _events; }
    std::size_t capacity() const { return _capacity; }
    std::uint64_t droppedCount() const { return _dropped.value(); }

    void
    clear()
    {
        _events.clear();
        _dropped.reset();
    }

  private:
    std::size_t _capacity;
    bool _running = false;
    std::vector<TraceEvent> _events;
    Counter _dropped;
};

/** A hardware histogrammer: 64K 32-bit saturating counters. */
class Histogrammer : public Named
{
  public:
    static constexpr std::size_t counters_per_unit = 1u << 16;

    explicit Histogrammer(const std::string &name, unsigned cascade = 1)
        : Named(name), _counters(counters_per_unit * cascade, 0)
    {
        sim_assert(cascade >= 1, "cascade must be at least 1");
    }

    /** Bump the counter for a sampled bin; saturates at 2^32 - 1. */
    void
    sample(std::size_t bin)
    {
        if (bin >= _counters.size()) {
            _out_of_range.inc();
            return;
        }
        if (_counters[bin] != ~std::uint32_t(0))
            ++_counters[bin];
    }

    /** Load a counter directly (hardware preload / test hook). */
    void
    preset(std::size_t bin, std::uint32_t value)
    {
        sim_assert(bin < _counters.size(), "preset of bin ", bin,
                   " outside ", _counters.size(), " counters");
        _counters[bin] = value;
    }

    std::uint32_t counter(std::size_t bin) const
    {
        return _counters.at(bin);
    }
    std::size_t numCounters() const { return _counters.size(); }
    std::uint64_t outOfRangeCount() const { return _out_of_range.value(); }

    /** Weighted mean of the recorded distribution. */
    double mean() const;

    void
    clear()
    {
        std::fill(_counters.begin(), _counters.end(), 0);
        _out_of_range.reset();
    }

  private:
    std::vector<std::uint32_t> _counters;
    Counter _out_of_range;
};

/**
 * The machine's monitoring station: one event tracer that latches
 * every posted signal, plus histogrammers attached to the quantities
 * the paper's study histogrammed (network queueing, memory-bank
 * waits, prefetch latencies). Components reach it through the
 * MonitorSink interface; nothing is recorded until the tracer is
 * started.
 */
class PerfMonitor : public Named, public MonitorSink
{
  public:
    explicit PerfMonitor(const std::string &name, unsigned cascade = 1);

    /** MonitorSink: route one event to the tracer and histogrammers. */
    void record(Tick when, Signal signal, std::int64_t value) override;

    /** Begin capturing (the hardware monitors had explicit arming). */
    void start() { _tracer.start(); }
    void stop() { _tracer.stopTracer(); }
    bool running() const { return _tracer.running(); }

    EventTracer &tracer() { return _tracer; }
    const EventTracer &tracer() const { return _tracer; }
    Histogrammer &netQueueing() { return _net_queueing; }
    Histogrammer &moduleWait() { return _module_wait; }
    Histogrammer &pfuLatency() { return _pfu_latency; }

    /** Events recorded per signal id. */
    std::uint64_t signalCount(Signal s) const;

    /** Expose monitor health under <name>.* in the registry. */
    void registerStats(StatRegistry &reg);

    void clear();

  private:
    EventTracer _tracer;
    Histogrammer _net_queueing;
    Histogrammer _module_wait;
    Histogrammer _pfu_latency;
    Counter _signal_counts[num_signals];
};

/**
 * Streaming Chrome-trace writer with crash-safe finalization.
 *
 * Writes an event trace in the Chrome trace-event format (a JSON
 * array of {name, cat, ph, ts, pid, tid} instant events, ts in
 * microseconds of machine time) so a run can be opened in
 * chrome://tracing or https://ui.perfetto.dev. Signal categories map
 * to trace threads, with metadata records naming each one.
 *
 * The stream opens the JSON array (and emits the thread-name
 * metadata) up front, appends events as they are handed over, and
 * closes the array in close() or, failing that, in its destructor —
 * so the file on disk is valid JSON on every exit path, including a
 * run that dies in a SimError, exactly when the trace is most wanted.
 */
class ChromeTraceStream
{
  public:
    /** Open @p path and write the array opening plus thread metadata. */
    explicit ChromeTraceStream(const std::string &path);

    /** Closes the array if close() was never called. */
    ~ChromeTraceStream();

    ChromeTraceStream(const ChromeTraceStream &) = delete;
    ChromeTraceStream &operator=(const ChromeTraceStream &) = delete;

    /** Append one instant event (unknown signal ids are skipped). */
    void post(Tick when, std::uint32_t signal, std::int64_t value = 0);

    /**
     * Append every tracer event at or after @p from_index; returns the
     * index to pass next time, so periodic draining never duplicates.
     */
    std::size_t drain(const EventTracer &tracer, std::size_t from_index = 0);

    /** Close the JSON array and the file. Idempotent. @return ok() */
    bool close();

    /** False once any I/O failed (open included). */
    bool ok() const { return _ok; }

    std::uint64_t eventsWritten() const { return _events_written; }

  private:
    int tidOf(const char *category);

    std::FILE *_file = nullptr;
    bool _ok = false;
    bool _closed = false;
    bool _first = true;
    std::uint64_t _events_written = 0;
    std::vector<const char *> _categories;
};

} // namespace cedar::machine

#endif // CEDARSIM_MACHINE_PERFMON_HH
