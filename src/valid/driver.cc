/**
 * @file
 * Validation driver implementation: parallel scenario execution with
 * submission-order deterministic reporting.
 */

#include "driver.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <exception>
#include <utility>

#include "exec/parallel.hh"

namespace cedar::valid {

namespace {

/** printf-append with exact formatting (report text is byte-checked). */
template <typename... Args>
void
appendf(std::string &out, const char *fmt, Args... args)
{
    int n = std::snprintf(nullptr, 0, fmt, args...);
    if (n <= 0)
        return;
    std::vector<char> buf(std::size_t(n) + 1);
    std::snprintf(buf.data(), buf.size(), fmt, args...);
    out.append(buf.data(), std::size_t(n));
}

} // namespace

std::string
ValidationReport::logText() const
{
    std::string text;
    for (const auto &out : outcomes) {
        if (out.threw) {
            appendf(text, "FAIL %s: scenario threw: %s\n",
                    out.name.c_str(), out.error.c_str());
            continue;
        }
        if (update) {
            appendf(text, "wrote %s\n", out.golden_path.c_str());
            continue;
        }
        if (out.golden_error) {
            appendf(text, "FAIL %s: %s\n", out.name.c_str(),
                    out.error.c_str());
            continue;
        }
        unsigned checked = unsigned(out.result.cells.size());
        if (!out.result.ok()) {
            appendf(text, "FAIL %s: %u of %u cells out of band\n%s",
                    out.name.c_str(),
                    out.result.failures +
                        unsigned(out.result.unknown_cells.size()),
                    checked, describeFailures(out.result).c_str());
        } else {
            appendf(text, "ok   %-22s %3u cells\n", out.name.c_str(),
                    checked);
        }
    }
    if (ran == 0) {
        text += "no scenario matched the filter\n";
    } else if (!update) {
        appendf(text, "%u scenario(s), %u failed\n", ran, failed);
    }
    return text;
}

Json
ValidationReport::jsonReport() const
{
    Json results = Json::array();
    for (const auto &out : outcomes) {
        if (update || out.threw || out.golden_error)
            continue;
        Json sj = Json::object();
        sj.set("scenario", Json::of(out.name));
        sj.set("ok", Json::of(out.result.ok()));
        sj.set("failures", Json::of(double(out.result.failures)));
        Json cells = Json::array();
        for (const auto &c : out.result.cells) {
            Json cj = Json::object();
            cj.set("key", Json::of(c.key));
            cj.set("measured", Json::of(c.measured));
            cj.set("golden", Json::of(c.expected));
            if (c.paper == c.paper)
                cj.set("paper", Json::of(c.paper));
            cj.set("drift", Json::of(c.drift_seen));
            cj.set("ok", Json::of(c.ok()));
            cells.push(std::move(cj));
        }
        sj.set("cells", std::move(cells));
        results.push(std::move(sj));
    }
    Json top = Json::object();
    top.set("scenarios_run", Json::of(double(ran)));
    top.set("scenarios_failed", Json::of(double(failed)));
    // A pass that ran nothing proved nothing: "ok" requires ran > 0.
    top.set("ok", Json::of(failed == 0 && ran > 0));
    top.set("results", std::move(results));
    return top;
}

int
ValidationReport::exitCode() const
{
    if (ran == 0)
        return 2;
    if (update)
        return 0;
    return failed == 0 ? 0 : 1;
}

std::vector<const Scenario *>
selectScenarios(const ValidationOptions &opts)
{
    auto selected = [&opts](const Scenario &s) {
        if (opts.fast_only && !s.fast)
            return false;
        if (opts.filters.empty())
            return true;
        for (const auto &f : opts.filters)
            if (s.name.find(f) != std::string::npos)
                return true;
        return false;
    };
    std::vector<const Scenario *> chosen;
    for (const auto &s : allScenarios())
        if (selected(s))
            chosen.push_back(&s);
    return chosen;
}

ValidationReport
runValidation(const ValidationOptions &opts)
{
    ValidationReport report;
    report.update = opts.update;

    const std::string golden_dir =
        opts.golden_dir.empty() ? goldenDir() : opts.golden_dir;

    const std::vector<const Scenario *> chosen = selectScenarios(opts);
    report.ran = unsigned(chosen.size());
    if (chosen.empty())
        return report;

    // Table printing from concurrent workers would interleave; verbose
    // mode keeps it, so it pins the literal serial path.
    const unsigned jobs = opts.verbose ? 1 : std::max(1u, opts.jobs);
    const unsigned point_jobs = std::max(1u, opts.point_jobs);

    std::vector<std::function<ScenarioOutcome()>> tasks;
    tasks.reserve(chosen.size());
    for (const Scenario *s : chosen) {
        tasks.push_back([s, &opts, &golden_dir, point_jobs] {
            // Everything the run touches — machines, simulations, stat
            // registries — is constructed inside this task; the only
            // things crossing the boundary are the immutable options
            // and the returned outcome (DESIGN.md §10).
            ScenarioOutcome out;
            out.name = s->name;
            ScenarioOptions sopts;
            sopts.config_hook = opts.config_hook;
            sopts.jobs = point_jobs;
            if (!opts.telemetry_dir.empty())
                sopts.telemetry_interval = opts.telemetry_interval;
            try {
                out.metrics = runScenario(*s, sopts);
            } catch (const std::exception &e) {
                out.threw = true;
                out.error = e.what();
                return out;
            }
            out.golden_path = goldenPath(golden_dir, s->name);
            if (opts.update)
                return out; // golden written in the reduce
            try {
                out.result = checkAgainstGolden(loadGolden(out.golden_path),
                                                out.metrics);
            } catch (const std::exception &e) {
                out.golden_error = true;
                out.error = e.what();
            }
            return out;
        });
    }

    {
        // The silencer swaps the process-wide stdout fd, so it wraps
        // the whole parallel phase exactly once, never per worker.
        std::optional<StdoutSilencer> quiet;
        if (!opts.verbose)
            quiet.emplace();
        report.outcomes =
            exec::parallelMap<ScenarioOutcome>(jobs, std::move(tasks));
    }

    for (const auto &out : report.outcomes) {
        if (opts.update && !out.threw) {
            const Scenario *s = findScenario(out.name);
            saveGolden(out.golden_path, goldenFromRun(*s, out.metrics));
        }
        // Telemetry files are written here in the serial reduce, never
        // from workers, so their contents and creation order match the
        // submission order at any jobs count.
        if (!opts.telemetry_dir.empty() && !out.metrics.telemetry.empty()) {
            std::filesystem::create_directories(opts.telemetry_dir);
            std::string path =
                opts.telemetry_dir + "/" + out.name + ".jsonl";
            if (std::FILE *f = std::fopen(path.c_str(), "w")) {
                std::fwrite(out.metrics.telemetry.data(), 1,
                            out.metrics.telemetry.size(), f);
                std::fclose(f);
            } else {
                std::fprintf(stderr,
                             "telemetry: cannot write %s\n", path.c_str());
            }
        }
        if (out.failed())
            ++report.failed;
    }
    return report;
}

} // namespace cedar::valid
