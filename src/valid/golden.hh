/**
 * @file
 * Golden files: the checked-in, machine-readable form of every
 * EXPERIMENTS.md table and figure cell.
 *
 * Each scenario owns one JSON file under tests/golden/. A cell stores
 * four things: the paper's published value (when one exists), the
 * reproduced value frozen at `--update-golden` time, the accepted
 * deviation bands, and a provenance note naming the table/figure or
 * stated property it encodes. Checking a fresh run applies two
 * independent gates per cell:
 *
 *  - drift:  |measured - reproduced| <= drift * |reproduced|
 *            (tight; the simulator is deterministic, so any drift is
 *            an unintended model change — the regression tripwire);
 *  - paper:  |measured - paper| <= paper_tol * |paper|
 *            (the fidelity band; generous where EXPERIMENTS.md
 *            documents a systematic offset, zero where the
 *            reproduction is exact).
 */

#ifndef CEDARSIM_VALID_GOLDEN_HH
#define CEDARSIM_VALID_GOLDEN_HH

#include <string>
#include <vector>

#include "valid/scenario.hh"

namespace cedar::valid {

/** One frozen cell of a golden file. */
struct GoldenCell
{
    std::string key;
    /** Reproduced value frozen at --update-golden time. */
    double value = 0.0;
    /** Published value; NaN when the paper has no direct number. */
    double paper = std::numeric_limits<double>::quiet_NaN();
    /** Relative band around the paper value. */
    double paper_tol = 0.0;
    /** Relative band around the reproduced value. */
    double drift = 1e-6;
    /** Which table/figure/statement this encodes. */
    std::string note;

    bool hasPaper() const { return paper == paper; }
};

/** A scenario's complete golden record. */
struct GoldenFile
{
    std::string scenario;
    /** EXPERIMENTS.md section / paper table the cells come from. */
    std::string source;
    std::vector<GoldenCell> cells;

    const GoldenCell *find(const std::string &key) const;
};

/** Outcome of checking one cell against a fresh measurement. */
struct CellResult
{
    std::string key;
    double measured = 0.0;
    double expected = 0.0;
    double paper = std::numeric_limits<double>::quiet_NaN();
    /** Relative drift from the frozen value actually observed. */
    double drift_seen = 0.0;
    bool present = true;   ///< metric emitted by the run
    bool drift_ok = true;  ///< within the regression band
    bool paper_ok = true;  ///< within the paper fidelity band
    std::string note;

    bool ok() const { return present && drift_ok && paper_ok; }
};

/** Outcome of checking a whole scenario. */
struct CheckResult
{
    std::string scenario;
    std::vector<CellResult> cells;
    /** Cells the run emitted that the golden file does not know —
     *  a new cell was added without regenerating the golden. */
    std::vector<std::string> unknown_cells;
    unsigned failures = 0;

    bool ok() const { return failures == 0 && unknown_cells.empty(); }
};

/**
 * Directory holding the golden files: the compiled-in source-tree
 * tests/golden path (cedar_validate --golden-dir overrides it).
 */
std::string goldenDir();

/** Path of one scenario's golden file inside @p dir. */
std::string goldenPath(const std::string &dir,
                       const std::string &scenario);

/**
 * Load a golden file.
 * @throws std::runtime_error on missing file or malformed schema
 */
GoldenFile loadGolden(const std::string &path);

/** Serialize and write @p golden to @p path (pretty-printed). */
void saveGolden(const std::string &path, const GoldenFile &golden);

/** Build the golden record for a scenario from a canonical run. */
GoldenFile goldenFromRun(const Scenario &scenario,
                         const Metrics &metrics);

/** Check a fresh run's metrics against the frozen golden record. */
CheckResult checkAgainstGolden(const GoldenFile &golden,
                               const Metrics &metrics);

/** Human-readable one-line summaries of every failing cell. */
std::string describeFailures(const CheckResult &result);

} // namespace cedar::valid

#endif // CEDARSIM_VALID_GOLDEN_HH
