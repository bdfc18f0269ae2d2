/**
 * @file
 * cedarbench — the benchmark of record for cedarsim's host speed.
 *
 * Four workloads, each a closed loop with one client on one thread: a
 * unit starts when the previous one ends, and every unit of a workload
 * runs identical inputs, so the reported percentiles are order
 * statistics of one distribution. The workloads drive the simulator
 * only through its public calls (machine, kernels, net, sim
 * checkpointing); see perfbench/README.md for why each was chosen.
 *
 * Host-speed correction: before the first set-up and after every
 * set-up and unit, cedarbench times a reference that runs no cedarsim
 * code (a binary heap, random read-modify-writes over a 1 MB table, a
 * node map churned through its own pool, and snprintf). Every timing
 * of a set-up or unit, and of every span inside it, is scaled by the
 * frozen nominal reference time over the median of the references
 * around it, so a slow host and a slow program can be told apart; the
 * raw numbers are printed alongside.
 *
 * Every unit's simulated output is checked outside the timed span: a
 * hash of the machine's stat dump, the traffic result fields, or the
 * saved snapshot bytes, against values frozen in perfbench/expected.txt.
 *
 * Usage:
 *   cedarbench --workload W --seed N --seconds S --trace 0|1
 *              --expected FILE [--spans FILE] [--perturb KNOB]
 *   cedarbench --record --expected FILE
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "kernels/banded.hh"
#include "kernels/cg.hh"
#include "kernels/rank64.hh"
#include "kernels/tridiag.hh"
#include "kernels/vload.hh"
#include "machine/cedar.hh"
#include "net/traffic.hh"
#include "sim/error.hh"
#include "sim/hostprof.hh"

using namespace cedar;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The seed whose traffic results are frozen in expected.txt. */
constexpr std::uint64_t default_seed = 0;
/** Setups per timed run; setup_s is their median. */
constexpr unsigned setup_repeats = 9;
/** Enough timed units that ten lie beyond the nearest-rank p90. */
constexpr std::size_t min_units = 100;
/** An item is corrected by the median of this many references on each
 *  side of it. */
constexpr std::size_t ref_half_window = 2;
/** Hard stop for the measuring loop, well inside the 180 s budget. */
constexpr double max_measure_seconds = 120.0;
/** fabric2048_traffic: scaled machine size and injection rounds. */
constexpr unsigned fabric_clusters = 256;
constexpr unsigned fabric_rounds = 8;

// ---------------------------------------------------------------------
// Statistics helpers

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/** Interquartile range over median. */
double
relativeIqr(const std::vector<double> &v)
{
    double m = median(v);
    if (v.size() < 4 || m == 0.0)
        return 0.0;
    return (percentile(v, 0.75) - percentile(v, 0.25)) / m;
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// ---------------------------------------------------------------------
// Host-speed reference

/**
 * A fixed piece of host work shaped like the simulator's — a binary
 * heap of about 2k entries, scattered read-modify-writes over a 1 MB
 * table that fits the per-core L2, an ordered node map churned through
 * an allocator, and number formatting through the C library — but
 * none of its code, so a program change never moves it. On the shared
 * host the benchmark was calibrated on, the simulator slowed down more
 * than any tight loop when the host was busy; the formatting part,
 * with its large and branchy code path, brings the reference's own
 * slow-down close to the simulator's.
 *
 * The reference shares no state with the program: its map nodes come
 * from a pool over a buffer it allocates once, never from the heap the
 * simulator allocates from, and each sample runs the loop twice and
 * keeps the second pass, which starts with the reference's own data in
 * cache rather than whatever the unit before it left there.
 */
class Reference
{
  public:
    Reference()
        : _table(std::size_t(1) << 17), _heap(2048), _arena(arena_bytes),
          _buffer(_arena.data(), _arena.size(),
                  std::pmr::null_memory_resource()),
          _pool(&_buffer)
    {
        std::uint64_t x = 0x243f6a8885a308d3ULL;
        for (auto &slot : _table)
            slot = x = splitmix64(x);
        for (auto &key : _heap)
            key = (x = splitmix64(x)) >> 40;
        std::make_heap(_heap.begin(), _heap.end(), std::greater<>());
        _state = x;
        // Grow the pool to its final size before the first sample.
        passMs();
    }

    struct Sample
    {
        /** The first pass, right after the program ran. */
        double first_ms;
        /** The second pass: the reference time every correction uses. */
        double ms;
    };

    Sample
    run()
    {
        double first = passMs();
        return {first, passMs()};
    }

  private:
    double
    passMs()
    {
        auto t0 = Clock::now();
        std::uint64_t x = _state;
        const std::size_t mask = _table.size() - 1;
        for (unsigned i = 0; i < heap_iterations; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::pop_heap(_heap.begin(), _heap.end(), std::greater<>());
            _heap.back() += (x & 0xffff) + 1;
            std::push_heap(_heap.begin(), _heap.end(), std::greater<>());
            std::uint64_t &slot = _table[(x >> 20) & mask];
            slot = slot * 31 + x;
            x += slot >> 3;
        }
        std::pmr::map<std::uint64_t, std::uint64_t> nodes(&_pool);
        for (unsigned i = 0; i < map_iterations; ++i) {
            x = splitmix64(x);
            nodes[x & 0xfff] += x;
            if (nodes.size() > 2048)
                nodes.erase(nodes.begin());
        }
        char text[64];
        for (unsigned i = 0; i < format_iterations; ++i) {
            x = splitmix64(x);
            int n = std::snprintf(text, sizeof text, "%llu.%s=%.6g",
                                  static_cast<unsigned long long>(x & 0xffff),
                                  i & 1 ? "abc" : "de",
                                  static_cast<double>(x >> 11) * 1e-9);
            x += static_cast<std::uint64_t>(n) + text[3];
        }
        _state = x + nodes.size();
        return secondsSince(t0) * 1e3;
    }

    static constexpr unsigned heap_iterations = 6000;
    static constexpr unsigned map_iterations = 7500;
    static constexpr unsigned format_iterations = 6000;
    /** Room for the pool's chunks; the map never holds more than 2049
     *  nodes. */
    static constexpr std::size_t arena_bytes = std::size_t(1) << 20;
    std::vector<std::uint64_t> _table;
    std::vector<std::uint64_t> _heap;
    std::vector<std::byte> _arena;
    std::pmr::monotonic_buffer_resource _buffer;
    std::pmr::unsynchronized_pool_resource _pool;
    std::uint64_t _state = 0;
};

/**
 * Every set-up and unit of a run in the order it ran, each followed by
 * a reference sample, with one more sample timed before the first, so
 * every item lies between two samples. This one series corrects every
 * timing of the run: an item, and every span inside it, is scaled by
 * the nominal reference time over the median of the references around
 * it. The host switches between a fast and a slow state every few
 * seconds, so the correction follows the host from item to item rather
 * than using one factor for the whole run.
 */
class Timeline
{
  public:
    explicit Timeline(double nominal_ms) : _nominal_ms(nominal_ms)
    {
        sample();
    }

    /** Index the next item will get. */
    std::size_t next() const { return _raw_s.size(); }

    /** Record an item's raw host time, then time the reference. */
    std::size_t
    add(double raw_s)
    {
        _raw_s.push_back(raw_s);
        sample();
        return _raw_s.size() - 1;
    }

    /** Scale for item @p i: nominal over its local reference median. */
    double
    factor(std::size_t i) const
    {
        // Item i lies between samples i and i + 1.
        std::size_t lo = i + 1 > ref_half_window ? i + 1 - ref_half_window
                                                  : 0;
        std::size_t hi = std::min(_ref_ms.size(), i + 1 + ref_half_window);
        return _nominal_ms /
               median(std::vector<double>(
                   _ref_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                   _ref_ms.begin() + static_cast<std::ptrdiff_t>(hi)));
    }

    double rawMs(std::size_t i) const { return _raw_s[i] * 1e3; }
    double correctedMs(std::size_t i) const
    {
        return rawMs(i) * factor(i);
    }

    /** The reference samples taken after items [first, last). */
    std::vector<double>
    refsAfter(std::size_t first, std::size_t last,
              bool first_pass = false) const
    {
        const auto &v = first_pass ? _ref_first_ms : _ref_ms;
        return {v.begin() + static_cast<std::ptrdiff_t>(first + 1),
                v.begin() + static_cast<std::ptrdiff_t>(last + 1)};
    }

  private:
    void
    sample()
    {
        Reference::Sample s = _ref.run();
        _ref_first_ms.push_back(s.first_ms);
        _ref_ms.push_back(s.ms);
    }

    double _nominal_ms;
    Reference _ref;
    std::vector<double> _raw_s;
    std::vector<double> _ref_ms;
    std::vector<double> _ref_first_ms;
};

// ---------------------------------------------------------------------
// Tracing: spans held in memory, counters folded into layers

struct SpanRecord
{
    std::string name;
    std::uint64_t id;
    /** The root span ("unit" or "setup") every child shares. */
    std::uint64_t root;
    double start_us;
    double end_us;
};

/** Public counters of one machine or fabric pair at an instant. */
struct Counters
{
    std::uint64_t events = 0;
    std::uint64_t pfu_requests = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t gm_requests = 0;
    std::uint64_t module_accesses = 0;
    std::uint64_t module_conflicts = 0;
    std::uint64_t backpressure = 0;
    double queueing_sum = 0.0;
    std::uint64_t queueing_count = 0;

    /** Add what the counters grew by from @p before to @p after. */
    void
    addGrowth(const Counters &before, const Counters &after)
    {
        events += after.events - before.events;
        pfu_requests += after.pfu_requests - before.pfu_requests;
        cache_hits += after.cache_hits - before.cache_hits;
        cache_misses += after.cache_misses - before.cache_misses;
        gm_requests += after.gm_requests - before.gm_requests;
        module_accesses += after.module_accesses - before.module_accesses;
        module_conflicts += after.module_conflicts - before.module_conflicts;
        backpressure += after.backpressure - before.backpressure;
        queueing_sum += after.queueing_sum - before.queueing_sum;
        queueing_count += after.queueing_count - before.queueing_count;
    }
};

/** Layer totals over the traced units (work counts and host time). */
struct LayerTotals
{
    /** Host time inside the kernel and traffic calls (kernels.* and
     *  net.* spans). */
    double call_s = 0.0;
    /** Profiled dispatch time, in total and by layer. */
    double dispatch_s = 0.0;
    double cluster_s = 0.0;
    double prefetch_s = 0.0;
    Counters work;
    std::uint64_t checkpoint_bytes = 0;
};

void
addNet(const net::Topology &t, Counters &c)
{
    c.backpressure += t.backpressureStalls();
    c.queueing_sum += t.queueingStat().sum();
    c.queueing_count += t.queueingStat().count();
}

void
addFabrics(const mem::GlobalMemory &gm, Counters &c)
{
    addNet(gm.forwardNet(), c);
    if (!gm.combinedNet())
        addNet(gm.reverseNet(), c);
}

Counters
readCounters(machine::CedarMachine &m)
{
    Counters c;
    c.events = m.sim().eventsExecuted();
    for (unsigned i = 0; i < m.numCes(); ++i)
        c.pfu_requests += m.ceAt(i).pfu().requestsIssued();
    for (unsigned i = 0; i < m.numClusters(); ++i) {
        c.cache_hits += m.clusterAt(i).cache().hitCount();
        c.cache_misses += m.clusterAt(i).cache().missCount();
    }
    const mem::GlobalMemory &gm = m.gm();
    c.gm_requests = gm.readCount() + gm.writeCount() + gm.syncCount();
    auto add_module = [&c](const mem::MemoryModule &mod) {
        c.module_accesses += mod.accessCount() + mod.syncOpCount();
        c.module_conflicts += mod.conflictCount();
    };
    for (unsigned i = 0; i < gm.numModules(); ++i)
        add_module(gm.module(i));
    add_module(gm.spareModule());
    addFabrics(gm, c);
    return c;
}

/**
 * Spans and layer totals of the traced items. Each root span ("setup"
 * or "unit") is one item of the run's Timeline; its children share its
 * id and are corrected with its factor.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : _origin(origin) {}

    /** Open a root span for Timeline item @p item; children recorded
     *  until the next root share it. */
    void
    beginRoot(const char *name, std::size_t item)
    {
        _roots.push_back({name, item, _spans.size(), {}});
        _spans.push_back({name, ++_next_id, _next_id, nowUs(), 0.0});
    }

    void endRoot() { _spans[_roots.back().span].end_us = nowUs(); }

    void
    span(const char *name, Clock::time_point t0, Clock::time_point t1)
    {
        _spans.push_back({name, ++_next_id, _spans[_roots.back().span].id,
                          toUs(t0), toUs(t1)});
    }

    /**
     * Host-corrected durations (ms) of every span called @p name under
     * a root called @p root, one per span.
     */
    std::vector<double>
    correctedMs(const std::string &name, const std::string &root,
                const Timeline &tl) const
    {
        std::vector<double> out;
        for (const Root &r : _roots) {
            if (r.name != root)
                continue;
            std::uint64_t id = _spans[r.span].id;
            for (std::size_t i = r.span + 1;
                 i < _spans.size() && _spans[i].root == id; ++i) {
                if (_spans[i].name == name) {
                    out.push_back((_spans[i].end_us - _spans[i].start_us) /
                                  1e3 * tl.factor(r.item));
                }
            }
        }
        return out;
    }

    /** Charge one kernel or traffic call to the open root: its span
     *  time, its dispatch profile and its counter growth. */
    void
    foldCall(double span_s, const HostProfiler *prof,
             const Counters &before, const Counters &after)
    {
        LayerTotals &l = _roots.back().layers;
        l.call_s += span_s;
        if (prof) {
            for (const auto &row : prof->table()) {
                l.dispatch_s += row.seconds;
                std::string_view kind = row.kind;
                if (kind.starts_with("ce.") || kind.starts_with("ccb."))
                    l.cluster_s += row.seconds;
                else if (kind.starts_with("pfu."))
                    l.prefetch_s += row.seconds;
            }
        }
        l.work.addGrowth(before, after);
    }

    void noteCheckpointBytes(std::size_t n)
    {
        _roots.back().layers.checkpoint_bytes = n;
    }

    /** Layer totals summed over the "unit" roots, host times corrected
     *  with each unit's factor. */
    LayerTotals
    unitLayers(const Timeline &tl) const
    {
        LayerTotals sum;
        for (const Root &r : _roots) {
            if (r.name != std::string_view("unit"))
                continue;
            double k = tl.factor(r.item);
            sum.call_s += r.layers.call_s * k;
            sum.dispatch_s += r.layers.dispatch_s * k;
            sum.cluster_s += r.layers.cluster_s * k;
            sum.prefetch_s += r.layers.prefetch_s * k;
            sum.work.addGrowth(Counters{}, r.layers.work);
            sum.checkpoint_bytes = r.layers.checkpoint_bytes;
        }
        return sum;
    }

    /** Write every span as a Chrome trace event array. */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "[\n";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const SpanRecord &s = _spans[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%llu,\"unit\":%llu}}",
                          s.name.c_str(), s.start_us,
                          s.end_us - s.start_us,
                          static_cast<unsigned long long>(s.id),
                          static_cast<unsigned long long>(s.root));
            out << buf << (i + 1 < _spans.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }

  private:
    double toUs(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - _origin)
            .count();
    }
    double nowUs() const { return toUs(Clock::now()); }

    struct Root
    {
        std::string name;
        /** Timeline item the root covers. */
        std::size_t item;
        /** Index of the root's own record in _spans. */
        std::size_t span;
        LayerTotals layers;
    };

    Clock::time_point _origin;
    std::vector<SpanRecord> _spans;
    std::vector<Root> _roots;
    std::uint64_t _next_id = 0;
};

// ---------------------------------------------------------------------
// Units

/** Per-unit bookkeeping shared by every workload. */
struct UnitContext
{
    /** Non-null in the traced phase only. */
    Tracer *trace = nullptr;
    /** Host seconds inside the timed segments of this unit. */
    double timed_s = 0.0;
    /** Simulated cycles the unit advanced, over all its engines. */
    std::uint64_t sim_cycles = 0;
    /** One entry per failed check. */
    std::vector<std::string> failures;

    /** Run @p fn inside the unit's timed span; @return its seconds. */
    template <class F>
    double
    timed(const char *span, F &&fn)
    {
        auto t0 = Clock::now();
        fn();
        auto t1 = Clock::now();
        double s = std::chrono::duration<double>(t1 - t0).count();
        timed_s += s;
        if (trace && span)
            trace->span(span, t0, t1);
        return s;
    }

    /**
     * Compute an output fingerprint and compare it with the frozen
     * one, outside the timed span.
     * @return the fingerprint
     */
    template <class F>
    std::string
    check(const std::string &what, F &&fingerprint, const std::string &want)
    {
        auto t0 = Clock::now();
        std::string got = fingerprint();
        if (trace)
            trace->span("bench.check", t0, Clock::now());
        if (got != want)
            failures.push_back(what + ": got " + got + ", want " + want);
        return got;
    }
};

/** Frozen values: the nominal reference time and expected outputs. */
class Expected
{
  public:
    explicit Expected(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot read " + path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            auto sp = line.find(' ');
            if (sp != std::string::npos)
                _values[line.substr(0, sp)] = line.substr(sp + 1);
        }
    }

    /** The frozen value for @p key, or "(none)" when not recorded. */
    std::string
    get(const std::string &key) const
    {
        auto it = _values.find(key);
        return it == _values.end() ? "(none)" : it->second;
    }

    double
    number(const std::string &key) const
    {
        auto it = _values.find(key);
        if (it == _values.end())
            throw std::runtime_error("missing frozen value " + key);
        return std::stod(it->second);
    }

  private:
    std::map<std::string, std::string> _values;
};

/** Hash of the stat dump without the wall-clock `.host_` lines, the
 *  only entries that differ between identical runs. */
std::string
statFingerprint(machine::CedarMachine &m)
{
    std::istringstream in(m.stats().dumpText());
    std::string line;
    std::uint64_t h = fnv1a("");
    while (std::getline(in, line)) {
        if (line.find(".host_") == std::string::npos) {
            h = fnv1a(line, h);
            h = fnv1a("\n", h);
        }
    }
    return "fnv64:" + hex64(h);
}

/** Knob moved by the self-test to prove the checks catch errors. */
enum class Perturb
{
    none,
    module_conflict,
    crossbar_arb,
};

void
applyPerturb(Perturb p, machine::CedarConfig &cfg)
{
    if (p == Perturb::module_conflict)
        cfg.gm.module_conflict_extra += 1;
    else if (p == Perturb::crossbar_arb)
        cfg.gm.crossbar_arb_cycles += 1;
}

/** One workload: a set-up step and a unit repeated in a closed loop. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the state the units need, including one warm-up unit. */
    virtual void setup(UnitContext &ctx) = 0;
    virtual void unit(UnitContext &ctx) = 0;
    /** Frozen-value lines for the default inputs (--record). */
    virtual std::vector<std::string> record() = 0;
};

/**
 * Build a fresh machine, run one kernel on it, check its stat dump
 * and destroy it. Build, run and destruction are timed; the check
 * is not.
 * @return the machine's stat fingerprint
 */
std::string
kernelOnFreshMachine(UnitContext &ctx, const machine::CedarConfig &cfg,
                     const char *span,
                     const std::function<void(machine::CedarMachine &)>
                         &kernel,
                     const std::string &want)
{
    std::unique_ptr<machine::CedarMachine> m;
    ctx.timed("machine.build", [&] {
        m = std::make_unique<machine::CedarMachine>(cfg);
    });
    Counters before;
    if (ctx.trace) {
        m->sim().setProfiling(true);
        before = readCounters(*m);
    }
    double s = ctx.timed(span, [&] { kernel(*m); });
    ctx.sim_cycles += m->sim().curTick();
    if (ctx.trace) {
        ctx.trace->foldCall(s, m->sim().profiler(), before,
                            readCounters(*m));
    }
    std::string got =
        ctx.check(span, [&] { return statFingerprint(*m); }, want);
    ctx.timed(nullptr, [&] { m.reset(); });
    return got;
}

struct KernelCase
{
    /** Span and frozen-value name. */
    const char *name;
    std::function<void(machine::CedarMachine &)> run;
};

/** Workloads whose unit is a list of kernels, each on a fresh machine. */
class KernelWorkload : public Workload
{
  public:
    KernelWorkload(std::string name, machine::CedarConfig cfg,
                   std::vector<KernelCase> cases, const Expected &exp)
        : _name(std::move(name)), _cfg(std::move(cfg)),
          _cases(std::move(cases))
    {
        for (const auto &k : _cases)
            _want.push_back(exp.get(key(k)));
    }

    void setup(UnitContext &ctx) override { unit(ctx); }

    void
    unit(UnitContext &ctx) override
    {
        for (std::size_t i = 0; i < _cases.size(); ++i) {
            kernelOnFreshMachine(ctx, _cfg, _cases[i].name,
                                 _cases[i].run, _want[i]);
        }
    }

    std::vector<std::string>
    record() override
    {
        std::vector<std::string> lines;
        UnitContext ctx;
        for (const auto &k : _cases) {
            lines.push_back(key(k) + " " +
                            kernelOnFreshMachine(ctx, _cfg, k.name, k.run,
                                                 ""));
        }
        return lines;
    }

  private:
    std::string key(const KernelCase &k) const
    {
        return _name + "." + k.name;
    }

    std::string _name;
    machine::CedarConfig _cfg;
    std::vector<KernelCase> _cases;
    std::vector<std::string> _want;
};

/** Rank-64 update on all four clusters of a 32-CE machine. */
kernels::Rank64Params
rank64(unsigned n, kernels::Rank64Version v)
{
    kernels::Rank64Params p;
    p.n = n;
    p.clusters = 4;
    p.version = v;
    return p;
}

std::unique_ptr<Workload>
makePaper32(Perturb perturb, const Expected &exp)
{
    auto cfg = machine::CedarConfig::standard();
    applyPerturb(perturb, cfg);
    using kernels::Rank64Version;
    std::vector<KernelCase> cases = {
        {"kernels.vl",
         [](machine::CedarMachine &m) {
             kernels::VloadParams p;
             p.ces = 32;
             p.repetitions = 12;
             kernels::runVload(m, p);
         }},
        {"kernels.tm",
         [](machine::CedarMachine &m) {
             kernels::TridiagParams p;
             p.n = 4096;
             p.ces = 32;
             kernels::runTridiag(m, p);
         }},
        {"kernels.rk_nopref",
         [](machine::CedarMachine &m) {
             kernels::runRank64(m, rank64(32, Rank64Version::gm_no_prefetch));
         }},
        {"kernels.rk_pref",
         [](machine::CedarMachine &m) {
             kernels::runRank64(m, rank64(32, Rank64Version::gm_prefetch));
         }},
        {"kernels.rk_cache",
         [](machine::CedarMachine &m) {
             kernels::runRank64(m, rank64(32, Rank64Version::gm_cache));
         }},
        {"kernels.cg",
         [](machine::CedarMachine &m) {
             kernels::CgTimedParams p;
             p.n = 2048;
             p.m = 64;
             p.ces = 32;
             p.iterations = 1;
             kernels::runCgTimed(m, p);
         }},
    };
    return std::make_unique<KernelWorkload>("paper32_kernels", cfg,
                                            std::move(cases), exp);
}

std::unique_ptr<Workload>
makeScaled512(Perturb perturb, const Expected &exp)
{
    auto cfg = machine::CedarConfig::scaled(64);
    applyPerturb(perturb, cfg);
    std::vector<KernelCase> cases = {
        {"kernels.banded",
         [](machine::CedarMachine &m) {
             kernels::BandedParams p;
             p.n = 16384;
             p.bandwidth = 3;
             p.ces = 512;
             kernels::runBanded(m, p);
         }},
    };
    return std::make_unique<KernelWorkload>("scaled512_kernels", cfg,
                                            std::move(cases), exp);
}

/**
 * Live-point windows: restore a warmed 32-CE machine, run one short
 * detailed rank-32 window, and save the result.
 */
class LivepointWorkload : public Workload
{
  public:
    LivepointWorkload(Perturb perturb, const Expected &exp)
        : _cfg(machine::CedarConfig::standard()),
          _want(exp.get("livepoint_windows.snapshot"))
    {
        applyPerturb(perturb, _cfg);
    }

    void
    setup(UnitContext &ctx) override
    {
        std::unique_ptr<machine::CedarMachine> warm;
        ctx.timed("machine.build", [&] {
            warm = std::make_unique<machine::CedarMachine>(_cfg);
        });
        ctx.timed(nullptr, [&] {
            for (unsigned u = 0; u < warmup_units; ++u)
                kernels::runRank64(*warm, warmupParams());
            _live_point = warm->saveCheckpoint();
        });
        ctx.timed(nullptr, [&] { warm.reset(); });
        unit(ctx);
    }

    void unit(UnitContext &ctx) override { window(ctx, _want); }

    std::vector<std::string>
    record() override
    {
        UnitContext ctx;
        setup(ctx);
        return {"livepoint_windows.snapshot " + window(ctx, "")};
    }

  private:
    static kernels::Rank64Params
    warmupParams()
    {
        return rank64(64, kernels::Rank64Version::gm_prefetch);
    }

    /** One strip at half rank: the shortest detailed update that
     *  leaves snapshot I/O the majority of the window. */
    static kernels::Rank64Params
    windowParams()
    {
        auto p = rank64(32, kernels::Rank64Version::gm_prefetch);
        p.rank = 32;
        return p;
    }

    std::string
    window(UnitContext &ctx, const std::string &want)
    {
        std::unique_ptr<machine::CedarMachine> m;
        ctx.timed("machine.build", [&] {
            m = std::make_unique<machine::CedarMachine>(_cfg);
        });
        ctx.timed("sim.checkpoint.restore",
                  [&] { m->restoreCheckpoint(_live_point); });
        Counters before;
        if (ctx.trace) {
            m->sim().setProfiling(true);
            before = readCounters(*m);
        }
        Tick t0 = m->sim().curTick();
        double s = ctx.timed("kernels.rk_pref", [&] {
            kernels::runRank64(*m, windowParams());
        });
        ctx.sim_cycles += m->sim().curTick() - t0;
        if (ctx.trace) {
            ctx.trace->foldCall(s, m->sim().profiler(), before,
                                readCounters(*m));
        }
        std::string snapshot;
        ctx.timed("sim.checkpoint.save",
                  [&] { snapshot = m->saveCheckpoint(); });
        if (ctx.trace)
            ctx.trace->noteCheckpointBytes(snapshot.size());
        std::string got = ctx.check(
            "snapshot",
            [&] {
                return "fnv64:" + hex64(fnv1a(snapshot)) + "/bytes:" +
                       std::to_string(snapshot.size());
            },
            want);
        ctx.timed(nullptr, [&] { m.reset(); });
        return got;
    }

    static constexpr unsigned warmup_units = 2;

    machine::CedarConfig _cfg;
    std::string _want;
    std::string _live_point;
};

/** Advances an idle engine past the fabrics' last reservation. */
class IdleEvent : public Event
{
  public:
    void process() override {}
    const char *description() const override { return "bench.idle"; }
};

/**
 * Request/reply traffic through the 2048-port fabrics of three
 * interconnect families, built once as a memory system without
 * clusters.
 */
class FabricWorkload : public Workload
{
  public:
    FabricWorkload(Perturb perturb, std::uint64_t seed,
                   const Expected &exp)
        : _perturb(perturb), _seed(seed)
    {
        for (const char *kind : kinds) {
            for (net::TrafficPattern p : patterns)
                _want.push_back(exp.get(key(kind, p)));
        }
    }

    void
    setup(UnitContext &ctx) override
    {
        _fabrics.clear();
        _first.clear();
        _sim = std::make_unique<Simulation>();
        for (const char *kind : kinds) {
            auto cfg = machine::CedarConfig::scaled(fabric_clusters, kind);
            applyPerturb(_perturb, cfg);
            cfg.validate();
            ctx.timed("machine.build", [&] {
                _fabrics.push_back(std::make_unique<mem::GlobalMemory>(
                    std::string("fabric.") + kind, cfg.gm));
            });
        }
        unit(ctx);
    }

    void
    unit(UnitContext &ctx) override
    {
        std::size_t slot = 0;
        for (std::size_t f = 0; f < std::size(kinds); ++f) {
            for (net::TrafficPattern p : patterns) {
                std::string got = traffic(ctx, f, p);
                if (_first.size() <= slot)
                    _first.push_back(got);
                // Identical inputs must give identical outputs at any
                // seed; at the default seed they must also match the
                // frozen results.
                auto result = [&] { return got; };
                ctx.check(key(kinds[f], p) + " vs first unit", result,
                          _first[slot]);
                if (_seed == default_seed)
                    ctx.check(key(kinds[f], p), result, _want[slot]);
                ++slot;
            }
        }
    }

    std::vector<std::string>
    record() override
    {
        UnitContext ctx;
        setup(ctx);
        std::vector<std::string> lines;
        for (std::size_t f = 0; f < std::size(kinds); ++f) {
            for (net::TrafficPattern p : patterns)
                lines.push_back(key(kinds[f], p) + " " +
                                traffic(ctx, f, p));
        }
        return lines;
    }

  private:
    static constexpr const char *kinds[] = {"omega", "fattree",
                                            "crossbar"};
    static constexpr net::TrafficPattern patterns[] = {
        net::TrafficPattern::uniform, net::TrafficPattern::hot_spot};

    static std::string
    key(const char *kind, net::TrafficPattern p)
    {
        return std::string("fabric2048_traffic.") + kind + "." +
               net::trafficPatternName(p);
    }

    /**
     * One runTraffic call; checks conservation and returns the result
     * fields (makespan relative to the start) for the identity checks.
     */
    std::string
    traffic(UnitContext &ctx, std::size_t f, net::TrafficPattern pattern)
    {
        mem::GlobalMemory &gm = *_fabrics[f];
        net::Topology &fwd = gm.forwardNet();
        net::Topology &rev = gm.reverseNet();
        net::TrafficParams tp;
        tp.pattern = pattern;
        tp.rounds = fabric_rounds;
        tp.seed = splitmix64(_seed);

        std::string span = "net." + std::string(kinds[f]) + "." +
                           net::trafficPatternName(pattern);
        Counters before;
        if (ctx.trace) {
            _sim->setProfiling(false);
            _sim->setProfiling(true);
            before.events = _sim->eventsExecuted();
            addFabrics(gm, before);
        }
        Tick start = _sim->curTick();
        std::uint64_t replies_before = rev.deliveredWords();
        net::TrafficResult r;
        double s = ctx.timed(span.c_str(), [&] {
            r = net::runTraffic(*_sim, fwd, rev, tp);
        });
        ctx.sim_cycles += r.makespan - start;
        if (ctx.trace) {
            Counters after;
            after.events = _sim->eventsExecuted();
            addFabrics(gm, after);
            ctx.trace->foldCall(s, _sim->profiler(), before, after);
        }

        // Conservation: every port injected every round, every request
        // was delivered and answered, and no packet beat the fabrics'
        // structural floor (TrafficResult exposes the mean and the max
        // latency, so the floor is checked on both).
        ctx.check(
            span + " conservation",
            [&] {
                std::uint64_t packets =
                    std::uint64_t(fabric_rounds) * fwd.numPorts();
                double floor = static_cast<double>(fwd.minLatency() +
                                                   rev.minLatency());
                bool ok =
                    r.packets == packets &&
                    r.delivered_words == packets * tp.request_words &&
                    rev.deliveredWords() - replies_before ==
                        packets * tp.response_words &&
                    r.mean_latency >= floor &&
                    static_cast<double>(r.max_latency) >= floor;
                return std::string(ok ? "ok" : "violated");
            },
            "ok");

        // Start the next call with every port idle, so each unit sees
        // the same fabric state.
        _sim->schedule(_idle, r.makespan + 1);
        _sim->run();

        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "packets=%llu,mean_latency=%.17g,max_latency=%llu,"
                      "mean_queueing=%.17g,delivered_words=%llu,"
                      "span=%llu",
                      static_cast<unsigned long long>(r.packets),
                      r.mean_latency,
                      static_cast<unsigned long long>(r.max_latency),
                      r.mean_queueing,
                      static_cast<unsigned long long>(r.delivered_words),
                      static_cast<unsigned long long>(r.makespan - start));
        return buf;
    }

    Perturb _perturb;
    std::uint64_t _seed;
    std::vector<std::string> _want;
    /** Result fields of the first unit, per (fabric, pattern). */
    std::vector<std::string> _first;
    std::unique_ptr<Simulation> _sim;
    /** Declared after the engine, so it is destroyed first. */
    IdleEvent _idle;
    std::vector<std::unique_ptr<mem::GlobalMemory>> _fabrics;
};

const char *const workload_names[] = {"paper32_kernels",
                                      "fabric2048_traffic",
                                      "livepoint_windows",
                                      "scaled512_kernels"};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, Perturb perturb, std::uint64_t seed,
             const Expected &exp)
{
    if (name == "paper32_kernels")
        return makePaper32(perturb, exp);
    if (name == "fabric2048_traffic")
        return std::make_unique<FabricWorkload>(perturb, seed, exp);
    if (name == "livepoint_windows")
        return std::make_unique<LivepointWorkload>(perturb, exp);
    if (name == "scaled512_kernels")
        return makeScaled512(perturb, exp);
    throw std::runtime_error("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------
// Running

/** Units of one closed-loop measuring phase, and what they did. */
struct Phase
{
    /** Timeline items of the phase's units. */
    std::size_t first = 0;
    std::size_t last = 0;
    std::uint64_t sim_cycles = 0;

    std::vector<double>
    correctedMs(const Timeline &tl) const
    {
        std::vector<double> out;
        for (std::size_t i = first; i < last; ++i)
            out.push_back(tl.correctedMs(i));
        return out;
    }
};

/** Units (set-ups included) attempted and failed over a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Run one unit (or set-up) and count it, catching simulator errors. */
template <class F>
void
attempt(Tally &tally, UnitContext &ctx, F &&body)
{
    ++tally.attempted;
    try {
        body();
    } catch (const SimError &e) {
        ctx.failures.push_back(std::string("SimError: ") + e.what());
    }
    if (!ctx.failures.empty()) {
        ++tally.failed;
        if (tally.failed <= 3) {
            for (const auto &f : ctx.failures)
                std::fprintf(stderr, "cedarbench: unit failed: %s\n",
                             f.c_str());
        }
    }
}

/** Closed loop: units back to back, the reference timed between. */
Phase
measure(Workload &wl, Timeline &tl, double seconds, Tracer *trace,
        Tally &tally)
{
    Phase phase;
    phase.first = tl.next();
    auto t0 = Clock::now();
    while (true) {
        double elapsed = secondsSince(t0);
        std::size_t units = tl.next() - phase.first;
        if (elapsed >= max_measure_seconds ||
            (elapsed >= seconds && units >= min_units))
            break;
        UnitContext ctx;
        ctx.trace = trace;
        if (trace)
            trace->beginRoot("unit", tl.next());
        attempt(tally, ctx, [&] { wl.unit(ctx); });
        if (trace)
            trace->endRoot();
        tl.add(ctx.timed_s);
        phase.sim_cycles += ctx.sim_cycles;
    }
    phase.last = tl.next();
    return phase;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** Metrics in insertion order, printed as the result object. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        _rows.push_back({name, value, unit});
    }

    void
    printTable() const
    {
        for (const auto &r : _rows)
            std::printf("  %-40s %18.6f %s\n", r.name.c_str(), r.value,
                        r.unit.c_str());
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < _rows.size(); ++i) {
            out += (i ? ", \"" : "\"") + _rows[i].name +
                   "\": {\"value\": " + num(_rows[i].value) +
                   ", \"unit\": \"" + _rows[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> _rows;
};

/**
 * Peak resident set of this process image. getrusage() would not do:
 * its ru_maxrss keeps the high-water mark of the image that exec'd
 * this one (the Python launcher).
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

/** The result object: the last line on stdout. */
void
printResult(const Tally &tally, const Metrics &m)
{
    m.printTable();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                m.json().c_str());
    std::fflush(stdout);
}

/**
 * Host diagnostics of a phase: the raw unit times, the reference's
 * median and spread, and how much slower the reference's first pass
 * (right after a unit) ran than its second.
 */
void
printHostLine(const char *label, const Phase &p, const Timeline &tl)
{
    std::vector<double> ms;
    for (std::size_t i = p.first; i < p.last; ++i)
        ms.push_back(tl.rawMs(i));
    std::vector<double> ref = tl.refsAfter(p.first, p.last);
    std::printf("%s: units=%zu raw unit_p50_ms=%.4f raw unit_p90_ms=%.4f "
                "bench.ref_ms=%.4f ref_iqr/median=%.4f "
                "ref_first_pass/ref_ms=%.4f\n",
                label, ms.size(), median(ms), percentile(ms, 0.9),
                median(ref), relativeIqr(ref),
                median(tl.refsAfter(p.first, p.last, true)) / median(ref));
}

struct Options
{
    std::string workload;
    std::uint64_t seed = default_seed;
    double seconds = 10.0;
    bool trace = false;
    bool record = false;
    std::string expected;
    std::string spans;
    Perturb perturb = Perturb::none;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = std::stoull(value());
        } else if (a == "--seconds") {
            o.seconds = std::stod(value());
        } else if (a == "--trace") {
            o.trace = value() == "1";
        } else if (a == "--expected") {
            o.expected = value();
        } else if (a == "--spans") {
            o.spans = value();
        } else if (a == "--record") {
            o.record = true;
        } else if (a == "--perturb") {
            std::string k = value();
            if (k == "gm.module_conflict_extra")
                o.perturb = Perturb::module_conflict;
            else if (k == "gm.crossbar_arb_cycles")
                o.perturb = Perturb::crossbar_arb;
            else
                throw std::runtime_error("unknown perturbation " + k);
        } else {
            throw std::runtime_error("unknown argument " + a);
        }
    }
    if (o.expected.empty())
        throw std::runtime_error("--expected FILE is required");
    if (!o.record && o.workload.empty())
        throw std::runtime_error("--workload NAME is required");
    if (!(o.seconds > 0.0))
        throw std::runtime_error("--seconds must be positive");
    return o;
}

/** Untraced run: the end-to-end metrics. */
int
runTimed(const Options &o, const Expected &exp, double nominal)
{
    Timeline tl(nominal);
    Tally tally;
    std::vector<std::size_t> setups;
    std::unique_ptr<Workload> wl;
    for (unsigned i = 0; i < setup_repeats; ++i) {
        wl.reset();
        auto t0 = Clock::now();
        wl = makeWorkload(o.workload, o.perturb, o.seed, exp);
        UnitContext ctx;
        attempt(tally, ctx, [&] { wl->setup(ctx); });
        setups.push_back(tl.add(secondsSince(t0)));
    }
    Phase phase = measure(*wl, tl, o.seconds, nullptr, tally);

    std::vector<double> setup_ms, setup_raw_ms;
    for (std::size_t i : setups) {
        setup_ms.push_back(tl.correctedMs(i));
        setup_raw_ms.push_back(tl.rawMs(i));
    }
    std::vector<double> unit_ms = phase.correctedMs(tl);
    double total_s = 0.0;
    for (double ms : unit_ms)
        total_s += ms / 1e3;
    Metrics m;
    m.add("setup_s", median(setup_ms) / 1e3, "s");
    m.add("unit_p50_ms", median(unit_ms), "ms");
    m.add("unit_p90_ms", percentile(unit_ms, 0.9), "ms");
    m.add("sim_mcycles_per_s",
          static_cast<double>(phase.sim_cycles) / total_s / 1e6,
          "Mcycles/s");
    m.add("peak_rss_mb", peakRssMb(), "MB");

    std::size_t beyond =
        unit_ms.size() -
        static_cast<std::size_t>(
            std::ceil(0.9 * static_cast<double>(unit_ms.size())));
    std::printf("cedarbench: workload=%s seed=%llu units=%zu "
                "(%zu beyond p90) units_attempted=%llu "
                "units_failed=%llu raw setup_s=%.4f\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), unit_ms.size(),
                beyond, static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                median(setup_raw_ms) / 1e3);
    printHostLine("host", phase, tl);
    printResult(tally, m);
    return 0;
}

/** Traced run: an untraced half for the overhead, then a traced half. */
int
runTraced(const Options &o, const Expected &exp, double nominal)
{
    Tracer tracer(Clock::now());
    Timeline tl(nominal);
    Tally tally;
    auto wl = makeWorkload(o.workload, o.perturb, o.seed, exp);
    {
        UnitContext ctx;
        ctx.trace = &tracer;
        tracer.beginRoot("setup", tl.next());
        auto t0 = Clock::now();
        attempt(tally, ctx, [&] { wl->setup(ctx); });
        tracer.endRoot();
        tl.add(secondsSince(t0));
    }
    Phase plain = measure(*wl, tl, o.seconds / 2, nullptr, tally);
    Phase traced = measure(*wl, tl, o.seconds / 2, &tracer, tally);

    double units = static_cast<double>(traced.last - traced.first);
    const LayerTotals L = tracer.unitLayers(tl);
    const Counters &W = L.work;

    auto ms = [&](const std::string &span) {
        return median(tracer.correctedMs(span, "unit", tl));
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    auto per_unit = [&](double v) { return ratio(v, units); };

    Metrics m;
    m.add("machine.build_ms", ms("machine.build"), "ms");
    double setup_build_ms = 0.0;
    for (double b : tracer.correctedMs("machine.build", "setup", tl))
        setup_build_ms += b;
    m.add("machine.setup_build_ms", setup_build_ms, "ms");
    m.add("sim.events", per_unit(static_cast<double>(W.events)), "count");
    m.add("sim.ns_per_event",
          ratio(L.call_s * 1e9, static_cast<double>(W.events)), "ns");
    m.add("sim.engine_self_share",
          ratio(L.call_s - L.dispatch_s, L.call_s), "ratio");

    double restore_ms = ms("sim.checkpoint.restore");
    double save_ms = ms("sim.checkpoint.save");
    double bytes = static_cast<double>(L.checkpoint_bytes);
    m.add("sim.checkpoint.restore_ms", restore_ms, "ms");
    m.add("sim.checkpoint.save_ms", save_ms, "ms");
    m.add("sim.checkpoint.bytes", bytes, "bytes");
    m.add("sim.checkpoint.restore_mbps", ratio(bytes / 1e3, restore_ms),
          "MB/s");
    m.add("sim.checkpoint.save_mbps", ratio(bytes / 1e3, save_ms), "MB/s");

    m.add("prefetch.dispatch_share", ratio(L.prefetch_s, L.call_s),
          "ratio");
    m.add("prefetch.requests",
          per_unit(static_cast<double>(W.pfu_requests)), "count");
    m.add("prefetch.ns_per_request",
          ratio(L.prefetch_s * 1e9, static_cast<double>(W.pfu_requests)),
          "ns");

    const double packets =
        fabric_rounds *
        machine::CedarConfig::scaled(fabric_clusters).numCes();
    for (const char *fabric : {"omega", "fattree", "crossbar"}) {
        for (const char *pattern : {"uniform", "hot_spot"}) {
            std::string span =
                std::string("net.") + fabric + "." + pattern;
            m.add(span + ".ns_per_packet", ms(span) * 1e6 / packets, "ns");
        }
    }
    m.add("net.backpressure_stalls",
          per_unit(static_cast<double>(W.backpressure)), "count");
    m.add("net.queueing_mean",
          ratio(W.queueing_sum, static_cast<double>(W.queueing_count)),
          "cycles");

    m.add("cluster.dispatch_share", ratio(L.cluster_s, L.call_s),
          "ratio");
    double accesses = static_cast<double>(W.cache_hits + W.cache_misses);
    m.add("cluster.cache_accesses", per_unit(accesses), "count");
    m.add("cluster.cache_hit_ratio",
          ratio(static_cast<double>(W.cache_hits), accesses), "ratio");

    m.add("mem.gm_requests", per_unit(static_cast<double>(W.gm_requests)),
          "count");
    m.add("mem.module_conflict_ratio",
          ratio(static_cast<double>(W.module_conflicts),
                static_cast<double>(W.module_accesses)),
          "ratio");

    for (const char *kernel :
         {"vl", "tm", "rk_nopref", "rk_pref", "rk_cache", "cg", "banded"}) {
        std::string span = std::string("kernels.") + kernel;
        m.add(span + ".ms", ms(span), "ms");
    }

    m.add("bench.ref_ms", median(tl.refsAfter(traced.first, traced.last)),
          "ms");
    m.add("bench.check_ms", ms("bench.check"), "ms");
    m.add("bench.trace_overhead",
          ratio(median(traced.correctedMs(tl)),
                median(plain.correctedMs(tl))),
          "ratio");

    if (!o.spans.empty())
        tracer.write(o.spans);

    std::printf("cedarbench: workload=%s seed=%llu traced units=%zu "
                "units_attempted=%llu units_failed=%llu\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                traced.last - traced.first,
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    printHostLine("host (untraced half)", plain, tl);
    printHostLine("host (traced half)", traced, tl);
    std::printf("limit: GM and network work issued from a PFU or CE event "
                "is charged to that event's kind, so outside "
                "fabric2048_traffic the network's own share is inside "
                "prefetch.dispatch_share and cluster.dispatch_share. "
                "Metrics of a layer the workload does not run read 0.\n");
    printResult(tally, m);
    return 0;
}

/** Print the frozen-value lines of every workload's default inputs. */
int
runRecord(const Options &o, const Expected &exp)
{
    for (const char *name : workload_names) {
        if (!o.workload.empty() && o.workload != name)
            continue;
        auto wl = makeWorkload(name, o.perturb, default_seed, exp);
        for (const auto &line : wl->record())
            std::printf("%s\n", line.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options o = parseArgs(argc, argv);
        Expected exp(o.expected);
        if (o.record)
            return runRecord(o, exp);
        double nominal = exp.number("reference.nominal_ms");
        return o.trace ? runTraced(o, exp, nominal)
                       : runTimed(o, exp, nominal);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cedarbench: %s\n", e.what());
        return 2;
    }
}
