/**
 * @file
 * Console table formatting shared by the benches and examples, plus a
 * side-by-side "measured vs paper" cell type so every reproduction
 * binary reports the comparison uniformly.
 */

#ifndef CEDARSIM_CORE_REPORT_HH
#define CEDARSIM_CORE_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cedar::core {

/** Simple fixed-width table printer for reproduction output. */
class TableWriter
{
  public:
    /** @param headers column titles; widths adapt to them */
    explicit TableWriter(std::vector<std::string> headers,
                         unsigned min_width = 10);

    /** Add a row of preformatted cells (must match header count). */
    void row(const std::vector<std::string> &cells);

    /** Render to stdout. */
    void print() const;

    /** Render to a string (for tests). */
    std::string str() const;

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
    unsigned _min_width;
};

/**
 * Headline-metric collector shared by the benches. A bench builds one
 * of these from argv, records its key numbers as it goes, and calls
 * emit() last; the metrics always come out as one single-line JSON
 * object so scripts can scrape results with `tail -n 1`. Passing
 * --json additionally suppresses the human-readable output: stdout is
 * routed to /dev/null for the run and only the JSON line survives.
 */
class BenchOutput
{
  public:
    /** @param name bench name recorded as the "bench" key */
    BenchOutput(const std::string &name, int argc, char **argv);
    ~BenchOutput();

    BenchOutput(const BenchOutput &) = delete;
    BenchOutput &operator=(const BenchOutput &) = delete;

    /** True when --json was given (tables are being discarded). */
    bool jsonOnly() const { return _json_only; }

    void metric(const std::string &key, double value);
    void metric(const std::string &key, std::uint64_t value);
    void metric(const std::string &key, int value);
    void metric(const std::string &key, unsigned value);
    void metric(const std::string &key, const std::string &value);
    void metric(const std::string &key, const char *value);

    /** The single-line JSON object accumulated so far. */
    std::string jsonLine() const;

    /** Print the JSON line (to the real stdout under --json). */
    void emit();

  private:
    void add(const std::string &key, const std::string &raw);

    std::string _name;
    std::string _body;
    bool _json_only = false;
    bool _provenance_added = false;
    int _saved_stdout = -1;
};

/** Format a double with fixed decimals. */
std::string fmt(double value, int decimals = 1);

/** Format "measured (paper X)" comparison cells. */
std::string vsPaper(double measured, double paper, int decimals = 1);

/** Relative error |measured - paper| / paper. */
double relativeError(double measured, double paper);

} // namespace cedar::core

#endif // CEDARSIM_CORE_REPORT_HH
