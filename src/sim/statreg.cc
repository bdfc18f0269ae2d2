/**
 * @file
 * Statistics registry: glob matching, aggregation, and dump formats.
 */

#include "statreg.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/logging.hh"

namespace cedar {

bool
globMatch(const std::string &pattern, const std::string &text)
{
    // Classic two-pointer matcher with single-level '*' backtracking.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string::npos, restart = 0;
    while (t < text.size()) {
        if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            restart = t;
        } else if (p < pattern.size() && pattern[p] == text[t]) {
            ++p;
            ++t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++restart;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Dotted-name segments. */
std::vector<std::string>
splitName(const std::string &name)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        std::size_t dot = name.find('.', start);
        if (dot == std::string::npos) {
            parts.push_back(name.substr(start));
            return parts;
        }
        parts.push_back(name.substr(start, dot - start));
        start = dot + 1;
    }
}

void
appendSummary(std::ostringstream &os, const SampleStat &s)
{
    os << "{\"count\": " << s.count()
       << ", \"sum\": " << jsonNumber(s.sum())
       << ", \"mean\": " << jsonNumber(s.mean())
       << ", \"min\": " << jsonNumber(s.min())
       << ", \"max\": " << jsonNumber(s.max())
       << ", \"stddev\": " << jsonNumber(s.stddev()) << "}";
}

} // namespace

void
StatRegistry::add(Entry entry)
{
    sim_assert(!entry.name.empty(), "statistic must have a name");
    auto [it, inserted] =
        _entries.emplace(entry.name, std::move(entry));
    if (!inserted)
        panic("duplicate statistic name '", it->first, "'");
}

void
StatRegistry::addCounter(const std::string &name, Counter &c)
{
    Entry e;
    e.name = name;
    e.kind = Kind::counter;
    e.counter = &c;
    add(std::move(e));
}

void
StatRegistry::addSample(const std::string &name, SampleStat &s)
{
    Entry e;
    e.name = name;
    e.kind = Kind::sample;
    e.sample = &s;
    add(std::move(e));
}

void
StatRegistry::addScalar(const std::string &name,
                        std::function<double()> fn)
{
    sim_assert(fn, "scalar statistic needs a callback");
    Entry e;
    e.name = name;
    e.kind = Kind::scalar;
    e.scalar = std::move(fn);
    add(std::move(e));
}

const StatRegistry::Entry *
StatRegistry::find(const std::string &name) const
{
    auto it = _entries.find(name);
    return it == _entries.end() ? nullptr : &it->second;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(_entries.size());
    for (const auto &[name, entry] : _entries)
        out.push_back(name);
    return out;
}

std::uint64_t
StatRegistry::counterValue(const std::string &name) const
{
    const Entry *e = find(name);
    if (!e || e->kind != Kind::counter)
        panic("no counter registered as '", name, "'");
    return e->counter->value();
}

double
StatRegistry::scalarValue(const std::string &name) const
{
    const Entry *e = find(name);
    if (!e || e->kind != Kind::scalar)
        panic("no scalar registered as '", name, "'");
    return e->scalar();
}

const SampleStat &
StatRegistry::sampleStat(const std::string &name) const
{
    const Entry *e = find(name);
    if (!e || e->kind != Kind::sample)
        panic("no sample statistic registered as '", name, "'");
    return *e->sample;
}

std::uint64_t
StatRegistry::sumCounters(const std::string &pattern) const
{
    std::uint64_t total = 0;
    for (const auto &[name, entry] : _entries) {
        if (entry.kind == Kind::counter && globMatch(pattern, name))
            total += entry.counter->value();
    }
    return total;
}

double
StatRegistry::sumScalars(const std::string &pattern) const
{
    double total = 0.0;
    for (const auto &[name, entry] : _entries) {
        if (entry.kind == Kind::scalar && globMatch(pattern, name))
            total += entry.scalar();
    }
    return total;
}

double
StatRegistry::weightedMean(const std::string &pattern) const
{
    double weighted = 0.0;
    double n = 0.0;
    for (const auto &[name, entry] : _entries) {
        if (entry.kind != Kind::sample || !globMatch(pattern, name))
            continue;
        auto count = static_cast<double>(entry.sample->count());
        weighted += entry.sample->mean() * count;
        n += count;
    }
    return n > 0.0 ? weighted / n : 0.0;
}

std::map<std::string, double>
StatRegistry::snapshot() const
{
    return snapshot("*");
}

std::map<std::string, double>
StatRegistry::snapshot(const std::string &pattern) const
{
    std::map<std::string, double> out;
    auto expand = [&out](const std::string &name, const SampleStat &s) {
        out[name + ".count"] = static_cast<double>(s.count());
        out[name + ".sum"] = s.sum();
        out[name + ".mean"] = s.mean();
        out[name + ".min"] = s.min();
        out[name + ".max"] = s.max();
        out[name + ".stddev"] = s.stddev();
    };
    for (const auto &[name, entry] : _entries) {
        if (!globMatch(pattern, name))
            continue;
        switch (entry.kind) {
          case Kind::counter:
            out[name] = static_cast<double>(entry.counter->value());
            break;
          case Kind::scalar:
            out[name] = entry.scalar();
            break;
          case Kind::sample:
            expand(name, *entry.sample);
            break;
        }
    }
    return out;
}

void
StatRegistry::resetAll()
{
    for (auto &[name, entry] : _entries) {
        switch (entry.kind) {
          case Kind::counter: entry.counter->reset(); break;
          case Kind::sample: entry.sample->reset(); break;
          case Kind::scalar: break; // derived, nothing to reset
        }
    }
}

std::string
StatRegistry::dumpText() const
{
    std::ostringstream os;
    for (const auto &[name, value] : snapshot())
        os << name << " " << jsonNumber(value) << "\n";
    return os.str();
}

std::string
StatRegistry::dumpJson() const
{
    std::ostringstream os;
    std::vector<std::string> scope; // currently open object path
    bool first_in_scope = true;

    auto indent = [&os](std::size_t depth) {
        for (std::size_t i = 0; i < depth + 1; ++i)
            os << "  ";
    };

    os << "{";
    for (const auto &[name, entry] : _entries) {
        std::vector<std::string> parts = splitName(name);
        sim_assert(!parts.empty(), "empty statistic name");
        std::vector<std::string> dir(parts.begin(), parts.end() - 1);

        // Close scopes that the new entry is not inside.
        std::size_t common = 0;
        while (common < scope.size() && common < dir.size() &&
               scope[common] == dir[common]) {
            ++common;
        }
        while (scope.size() > common) {
            scope.pop_back();
            os << "\n";
            indent(scope.size());
            os << "}";
            first_in_scope = false;
        }
        // Open the scopes the new entry needs.
        while (scope.size() < dir.size()) {
            if (!first_in_scope)
                os << ",";
            os << "\n";
            indent(scope.size());
            os << "\"" << jsonEscape(dir[scope.size()]) << "\": {";
            scope.push_back(dir[scope.size()]);
            first_in_scope = true;
        }

        if (!first_in_scope)
            os << ",";
        first_in_scope = false;
        os << "\n";
        indent(scope.size());
        os << "\"" << jsonEscape(parts.back()) << "\": ";
        switch (entry.kind) {
          case Kind::counter:
            os << entry.counter->value();
            break;
          case Kind::scalar:
            os << jsonNumber(entry.scalar());
            break;
          case Kind::sample:
            appendSummary(os, *entry.sample);
            break;
        }
    }
    while (!scope.empty()) {
        scope.pop_back();
        os << "\n";
        indent(scope.size());
        os << "}";
    }
    os << "\n}\n";
    return os.str();
}

} // namespace cedar
