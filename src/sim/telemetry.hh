/**
 * @file
 * Time-resolved telemetry: interval sampling of the whole StatRegistry
 * into an ordered stream of JSONL records.
 *
 * The end-of-run machine report answers "what happened overall"; this
 * subsystem answers "when did it happen" — the time-resolved view the
 * paper's performance study was built from (phase-by-phase CE
 * utilization, network saturation ramps). A TelemetrySampler owns one
 * member event at EventPriority::stats: every `interval`
 * simulated ticks it snapshots the registry, computes per-interval
 * deltas and simulated-time rates, and writes one self-contained JSON
 * line to a pluggable TelemetrySink. When the rest of the event queue
 * has drained, the sampler emits a final record and stops
 * rescheduling — an armed sampler extends a finished run by at most
 * one interval (its own last event advances idle time to the next
 * boundary, deterministically), never indefinitely.
 *
 * Determinism contract: the registry holds only simulated-time
 * quantities, so the JSONL stream is bit-identical across reruns and
 * worker counts. Sampling adds engine events — visible in
 * `cedar.sim.events` — but never perturbs component behaviour; golden
 * cells are unchanged at any interval (tests/test_telemetry.cc pins
 * both properties).
 */

#ifndef CEDARSIM_SIM_TELEMETRY_HH
#define CEDARSIM_SIM_TELEMETRY_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/statreg.hh"
#include "sim/types.hh"

namespace cedar {

/** Destination for telemetry records, one JSONL line at a time. */
class TelemetrySink
{
  public:
    virtual ~TelemetrySink() = default;

    /** Receive one complete JSON line (no trailing newline). */
    virtual void write(const std::string &line) = 0;
};

/** Appends records to a file, one per line. */
class FileTelemetrySink : public TelemetrySink
{
  public:
    /** @throws std::runtime_error when the file cannot be opened */
    explicit FileTelemetrySink(const std::string &path);
    ~FileTelemetrySink() override;

    void write(const std::string &line) override;

    const std::string &path() const { return _path; }

  private:
    std::string _path;
    std::FILE *_file = nullptr;
};

/**
 * Keeps records in memory — the test sink, and the buffer the
 * validation driver drains in submission order after parallel runs.
 */
class RingTelemetrySink : public TelemetrySink
{
  public:
    void write(const std::string &line) override { _lines.push_back(line); }

    const std::vector<std::string> &lines() const { return _lines; }

    /** All lines, newline-terminated, ready to write out. */
    std::string text() const;

  private:
    std::vector<std::string> _lines;
};

/** Interval sampler bound to one engine and one stat registry. */
class TelemetrySampler
{
  public:
    /**
     * @param name component name carried in every record
     * @param sim  engine whose queue paces the sampling
     * @param reg  registry snapshotted each interval; every record
     *             carries all of it
     * @param interval simulated ticks between interval records (> 0)
     * @param sink destination; must outlive the sampler
     */
    TelemetrySampler(const std::string &name, Simulation &sim,
                     const StatRegistry &reg, Tick interval,
                     TelemetrySink &sink);
    ~TelemetrySampler();

    TelemetrySampler(const TelemetrySampler &) = delete;
    TelemetrySampler &operator=(const TelemetrySampler &) = delete;

    /** Schedule the first interval sample (idempotent). */
    void start();

    /**
     * Re-arm after a drain: a machine driven through several run()
     * phases calls this between phases to keep sampling.
     */
    void resume();

    /** Emit an on-demand record labelled @p label right now. */
    void sampleNow(const char *label = "sample");

    /**
     * Emit the final record (cumulative totals, kind "final") if it
     * has not been emitted yet. Called automatically when the queue
     * drains and from the destructor.
     */
    void finish();

    /** Records emitted so far. */
    std::uint64_t records() const { return _records; }

    /** True once finish() has run. */
    bool finished() const { return _finished; }

    /**
     * Interval state: previous snapshot, sequence number, window
     * clocks. A quiescent sampler has no scheduled event (it
     * self-finishes at drain); save refuses otherwise. Restore
     * deschedules any freshly-armed event first, so it is safe to
     * call before Simulation::restoreState — call resume() after the
     * full machine restore to re-arm sampling.
     */
    void saveState(CheckpointWriter &w) const;
    void restoreState(const CheckpointReader &r);

  private:
    void fire();
    void emitRecord(const char *kind, bool final_record);

    std::string _name;
    Simulation &_sim;
    const StatRegistry &_reg;
    Tick _interval;
    TelemetrySink &_sink;

    MemberEvent<TelemetrySampler, &TelemetrySampler::fire> _event{
        *this, EventPriority::stats, "telemetry.sample"};

    /** Previous snapshot, for per-interval deltas. */
    std::map<std::string, double> _prev;
    std::uint64_t _seq = 0;
    std::uint64_t _records = 0;
    Tick _last_tick = 0;
    std::uint64_t _last_events = 0;
    bool _started = false;
    bool _finished = false;
};

} // namespace cedar

#endif // CEDARSIM_SIM_TELEMETRY_HH
