/**
 * @file
 * Golden file load/save/check implementation.
 */

#include "valid/golden.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "valid/json.hh"

#ifndef CEDAR_GOLDEN_DIR_DEFAULT
#define CEDAR_GOLDEN_DIR_DEFAULT ""
#endif

namespace cedar::valid {

namespace {

/** Absolute slack applied to both bands so exact-zero cells compare
 *  robustly under floating point. */
constexpr double abs_slack = 1e-12;

bool
within(double measured, double target, double rel_tol)
{
    return std::abs(measured - target) <=
           rel_tol * std::abs(target) + abs_slack;
}

double
relDeviation(double measured, double target)
{
    double denom = std::abs(target);
    if (denom < abs_slack)
        return std::abs(measured - target) < abs_slack ? 0.0 : HUGE_VAL;
    return std::abs(measured - target) / denom;
}

} // namespace

const GoldenCell *
GoldenFile::find(const std::string &key) const
{
    for (const auto &c : cells)
        if (c.key == key)
            return &c;
    return nullptr;
}

std::string
goldenDir()
{
    return CEDAR_GOLDEN_DIR_DEFAULT;
}

std::string
goldenPath(const std::string &dir, const std::string &scenario)
{
    return dir + "/" + scenario + ".json";
}

GoldenFile
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("golden: cannot open " + path +
                                 " (pass --golden-dir DIR to cedar_validate, "
                                 "or refreeze with --update-golden)");
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    Json doc;
    try {
        doc = Json::parse(buf.str());
    } catch (const std::exception &e) {
        throw std::runtime_error("golden: " + path + ": " + e.what());
    }

    GoldenFile golden;
    if (const Json *s = doc.get("scenario"))
        golden.scenario = s->asString();
    if (const Json *s = doc.get("source"))
        golden.source = s->asString();
    const Json *cells = doc.get("cells");
    if (!cells || !cells->isArray())
        throw std::runtime_error("golden: " + path +
                                 ": missing \"cells\" array");
    for (std::size_t i = 0; i < cells->size(); ++i) {
        const Json &c = cells->at(i);
        GoldenCell cell;
        const Json *key = c.get("key");
        const Json *value = c.get("value");
        if (!key || !value) {
            throw std::runtime_error(
                "golden: " + path + ": cell " + std::to_string(i) +
                " needs \"key\" and \"value\"");
        }
        cell.key = key->asString();
        cell.value = value->asNumber();
        if (const Json *p = c.get("paper"); p && p->isNumber())
            cell.paper = p->asNumber();
        if (const Json *t = c.get("paper_tol"))
            cell.paper_tol = t->asNumber();
        if (const Json *d = c.get("drift"))
            cell.drift = d->asNumber();
        if (const Json *n = c.get("note"))
            cell.note = n->asString();
        golden.cells.push_back(std::move(cell));
    }
    return golden;
}

void
saveGolden(const std::string &path, const GoldenFile &golden)
{
    Json doc = Json::object();
    doc.set("scenario", Json::of(golden.scenario));
    doc.set("source", Json::of(golden.source));
    Json cells = Json::array();
    for (const auto &c : golden.cells) {
        Json cell = Json::object();
        cell.set("key", Json::of(c.key));
        cell.set("value", Json::of(c.value));
        if (c.hasPaper()) {
            cell.set("paper", Json::of(c.paper));
            cell.set("paper_tol", Json::of(c.paper_tol));
        }
        cell.set("drift", Json::of(c.drift));
        if (!c.note.empty())
            cell.set("note", Json::of(c.note));
        cells.push(std::move(cell));
    }
    doc.set("cells", std::move(cells));

    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("golden: cannot write " + path);
    out << doc.dump(2);
    if (!out)
        throw std::runtime_error("golden: write failed for " + path);
}

GoldenFile
goldenFromRun(const Scenario &scenario, const Metrics &metrics)
{
    GoldenFile golden;
    golden.scenario = scenario.name;
    golden.source = scenario.title;
    for (const auto &m : metrics.values) {
        if (!m.checked)
            continue;
        GoldenCell cell;
        cell.key = m.key;
        cell.value = m.value;
        cell.paper = m.spec.paper;
        cell.paper_tol = m.spec.paper_tol;
        cell.drift = m.spec.drift;
        cell.note = m.spec.note;
        golden.cells.push_back(std::move(cell));
    }
    return golden;
}

CheckResult
checkAgainstGolden(const GoldenFile &golden, const Metrics &metrics)
{
    CheckResult result;
    result.scenario = golden.scenario;

    for (const auto &cell : golden.cells) {
        CellResult r;
        r.key = cell.key;
        r.expected = cell.value;
        r.paper = cell.paper;
        r.note = cell.note;
        const MetricValue *m = metrics.find(cell.key);
        if (!m) {
            r.present = false;
            r.drift_ok = r.paper_ok = false;
        } else {
            r.measured = m->value;
            r.drift_seen = relDeviation(m->value, cell.value);
            r.drift_ok = within(m->value, cell.value, cell.drift);
            r.paper_ok = !cell.hasPaper() ||
                         within(m->value, cell.paper, cell.paper_tol);
        }
        if (!r.ok())
            ++result.failures;
        result.cells.push_back(std::move(r));
    }

    // A checked cell the golden file has never seen means the scenario
    // grew a new cell without --update-golden: flag it, or the new
    // cell would go unvalidated forever.
    for (const auto &m : metrics.values) {
        if (m.checked && !golden.find(m.key))
            result.unknown_cells.push_back(m.key);
    }
    return result;
}

std::string
describeFailures(const CheckResult &result)
{
    std::ostringstream os;
    for (const auto &c : result.cells) {
        if (c.ok())
            continue;
        os << "  " << result.scenario << "." << c.key << ": ";
        if (!c.present) {
            os << "missing from run (golden value " << c.expected
               << ")";
        } else {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "measured %.6g vs golden %.6g (drift %.2g%%)",
                          c.measured, c.expected, 100.0 * c.drift_seen);
            os << buf;
            if (!c.paper_ok && c.paper == c.paper) {
                std::snprintf(buf, sizeof(buf),
                              ", outside paper band %.6g", c.paper);
                os << buf;
            }
        }
        if (!c.note.empty())
            os << "  [" << c.note << "]";
        os << "\n";
    }
    for (const auto &key : result.unknown_cells) {
        os << "  " << result.scenario << "." << key
           << ": new cell not in golden file (run cedar_validate "
              "--update-golden)\n";
    }
    return os.str();
}

} // namespace cedar::valid
