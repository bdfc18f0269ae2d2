/**
 * @file
 * Host-time attribution for the engine dispatch loop.
 *
 * When profiling is armed, the engine brackets every event dispatch
 * with a pair of cheap timestamp reads (rdtsc where the ISA has it,
 * steady_clock otherwise) and charges the elapsed host time to the
 * event's *kind* — the static description string its class carries
 * ("ce.advance", "pfu.issue", "ce.start", ...). Because events never
 * nest, the charged time is exclusive by construction.
 *
 * The cost discipline mirrors the monitor probes: disarmed, the hot
 * loop pays a single null-pointer test; armed, two timestamp reads
 * and one pointer-keyed table bump per event. Profiling never feeds
 * back into simulated behaviour — results stay bit-identical with it
 * on or off (tests/test_telemetry.cc pins this).
 *
 * Arm per engine with Simulation::setProfiling(true), or process-wide
 * with CEDAR_HOST_PROFILE=1 in the environment (picked up at engine
 * construction).
 */

#ifndef CEDARSIM_SIM_HOSTPROF_HH
#define CEDARSIM_SIM_HOSTPROF_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cedar {

/** Raw timestamp in profiler units (TSC ticks or nanoseconds). */
std::uint64_t hostprofNow();

/** Convert a hostprofNow() difference to seconds. */
double hostprofToSeconds(std::uint64_t delta);

/** Per-event-kind dispatch counts and exclusive host time. */
class HostProfiler
{
  public:
    /** One attribution row. */
    struct KindStats
    {
        /** The event class's static description string. */
        std::string kind;
        std::uint64_t dispatches = 0;
        /** Exclusive host time inside process(), in seconds. */
        double seconds = 0.0;
    };

    /** Charge one dispatch of @p kind with @p delta profiler units. */
    void
    note(const char *kind, std::uint64_t delta)
    {
        // Kinds are static strings, so pointer identity is the key;
        // consecutive events are usually the same kind, so remember
        // the last slot before scanning the (short) table.
        if (_last && _last->kind == kind) {
            ++_last->dispatches;
            _last->units += delta;
            return;
        }
        noteSlow(kind, delta);
    }

    /** True once any dispatch has been charged. */
    bool empty() const { return _rows.empty(); }

    /** Rows sorted by exclusive host time, descending. */
    std::vector<KindStats> table() const;

    /** Fold this profiler's rows into the process-wide table. */
    void flushGlobal();

    /** The process-wide table (every flushed engine), sorted. */
    static std::vector<KindStats> globalTable();

    /** Drop the process-wide table (test isolation). */
    static void resetGlobal();

    /** True when CEDAR_HOST_PROFILE is set to a truthy value. */
    static bool envEnabled();

  private:
    struct Row
    {
        const char *kind;
        std::uint64_t dispatches;
        std::uint64_t units;
    };

    void noteSlow(const char *kind, std::uint64_t delta);

    std::vector<Row> _rows;
    Row *_last = nullptr;
};

} // namespace cedar

#endif // CEDARSIM_SIM_HOSTPROF_HH
