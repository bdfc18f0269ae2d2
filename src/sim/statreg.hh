/**
 * @file
 * Machine-wide statistics registry in the gem5 tradition.
 *
 * Components register their Counter / SampleStat members (and
 * derived scalar callbacks) under hierarchical dotted names such
 * as "cedar.cluster0.cache.misses". The registry then offers uniform
 * snapshot, reset, text-dump, and JSON-dump views of the whole
 * machine, so reports never hand-walk the component tree.
 */

#ifndef CEDARSIM_SIM_STATREG_HH
#define CEDARSIM_SIM_STATREG_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace cedar {

/**
 * Match @p text against a glob @p pattern where '*' matches any run of
 * characters (including dots) and every other character matches
 * itself. Multiple stars are supported: "cedar.cluster*.ce*.ops".
 */
bool globMatch(const std::string &pattern, const std::string &text);

/** Render a double compactly for JSON (%.10g): integers print without
 *  a point, non-finite values as 0. */
std::string jsonNumber(double v);

/** Escape @p s for the inside of a JSON string literal (no quotes
 *  added): '"', '\\' and every control character. */
std::string jsonEscape(const std::string &s);

/** Registry of named statistics owned by simulator components. */
class StatRegistry
{
  public:
    /** What a registered entry points at. */
    enum class Kind
    {
        counter,
        sample,
        scalar,
    };

    /** One registered statistic. */
    struct Entry
    {
        std::string name;
        Kind kind;
        Counter *counter = nullptr;
        SampleStat *sample = nullptr;
        std::function<double()> scalar;
    };

    /** Register a monotonic counter. Names must be unique. */
    void addCounter(const std::string &name, Counter &c);

    /** Register a streaming sample statistic. */
    void addSample(const std::string &name, SampleStat &s);

    /** Register a derived read-only scalar (not affected by reset). */
    void addScalar(const std::string &name, std::function<double()> fn);

    /** Number of registered entries. */
    std::size_t size() const { return _entries.size(); }

    /** Entry by exact name, or nullptr. */
    const Entry *find(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /** Value of the counter registered as @p name (panics if absent). */
    std::uint64_t counterValue(const std::string &name) const;

    /** Value of the scalar registered as @p name (panics if absent). */
    double scalarValue(const std::string &name) const;

    /** The SampleStat registered as @p name (panics if absent). */
    const SampleStat &sampleStat(const std::string &name) const;

    /** Sum of every counter whose name matches the glob @p pattern. */
    std::uint64_t sumCounters(const std::string &pattern) const;

    /** Sum of every scalar whose name matches the glob @p pattern. */
    double sumScalars(const std::string &pattern) const;

    /**
     * Count-weighted mean over every SampleStat matching @p pattern
     * (the mean of the pooled samples). 0 when nothing was sampled.
     */
    double weightedMean(const std::string &pattern) const;

    /**
     * Flattened snapshot of every statistic as name -> value. Samples
     * expand to dotted leaves (".count", ".mean", ".min", ".max",
     * ".stddev", ".sum").
     */
    std::map<std::string, double> snapshot() const;

    /**
     * Snapshot restricted to entries whose registered name matches the
     * glob @p pattern (leaves expand from matching entries as above).
     */
    std::map<std::string, double> snapshot(const std::string &pattern) const;

    /** Reset every registered counter and sample. */
    void resetAll();

    /** One "name value" line per snapshot leaf. */
    std::string dumpText() const;

    /**
     * The full registry as a hierarchical JSON object: dotted name
     * segments become nested objects, counters and scalars become
     * numbers, samples become summary objects.
     */
    std::string dumpJson() const;

  private:
    void add(Entry entry);

    /** name -> entry, sorted for deterministic dumps. */
    std::map<std::string, Entry> _entries;
};

} // namespace cedar

#endif // CEDARSIM_SIM_STATREG_HH
