/**
 * @file
 * Table formatting implementation.
 */

#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "core/provenance.hh"
#include "sim/hostprof.hh"
#include "sim/logging.hh"
#include "sim/statreg.hh"

namespace cedar::core {

TableWriter::TableWriter(std::vector<std::string> headers,
                         unsigned min_width)
    : _headers(std::move(headers)), _min_width(min_width)
{
    sim_assert(!_headers.empty(), "table needs at least one column");
}

void
TableWriter::row(const std::vector<std::string> &cells)
{
    sim_assert(cells.size() == _headers.size(), "row has ", cells.size(),
               " cells but the table has ", _headers.size(), " columns");
    _rows.push_back(cells);
}

std::string
TableWriter::str() const
{
    std::vector<std::size_t> widths(_headers.size(), _min_width);
    for (std::size_t c = 0; c < _headers.size(); ++c)
        widths[c] = std::max(widths[c], _headers[c].size());
    for (const auto &r : _rows)
        for (std::size_t c = 0; c < r.size(); ++c)
            widths[c] = std::max(widths[c], r[c].size());

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            // First column left-aligned, the rest right-aligned.
            if (c == 0) {
                os << cells[c]
                   << std::string(widths[c] - cells[c].size(), ' ');
            } else {
                os << std::string(widths[c] - cells[c].size(), ' ')
                   << cells[c];
            }
        }
        os << '\n';
    };
    emit(_headers);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto &r : _rows)
        emit(r);
    return os.str();
}

void
TableWriter::print() const
{
    std::fputs(str().c_str(), stdout);
}

BenchOutput::BenchOutput(const std::string &name, int argc, char **argv)
    : _name(name)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0)
            _json_only = true;
    if (_json_only) {
        // Park the human-readable output in /dev/null; emit() writes
        // the JSON line to the saved descriptor and then restores it.
        std::fflush(stdout);
        _saved_stdout = ::dup(STDOUT_FILENO);
        if (_saved_stdout < 0 ||
            !std::freopen("/dev/null", "w", stdout)) {
            _json_only = false;
            if (_saved_stdout >= 0) {
                ::close(_saved_stdout);
                _saved_stdout = -1;
            }
        }
    }
}

BenchOutput::~BenchOutput()
{
    if (_saved_stdout >= 0)
        emit();
}

void
BenchOutput::add(const std::string &key, const std::string &raw)
{
    if (!_body.empty())
        _body += ',';
    _body += '"' + jsonEscape(key) + "\":" + raw;
}

void
BenchOutput::metric(const std::string &key, double value)
{
    add(key, jsonNumber(value));
}

void
BenchOutput::metric(const std::string &key, std::uint64_t value)
{
    add(key, std::to_string(value));
}

void
BenchOutput::metric(const std::string &key, int value)
{
    add(key, std::to_string(value));
}

void
BenchOutput::metric(const std::string &key, unsigned value)
{
    add(key, std::to_string(value));
}

void
BenchOutput::metric(const std::string &key, const std::string &value)
{
    add(key, '"' + jsonEscape(value) + '"');
}

void
BenchOutput::metric(const std::string &key, const char *value)
{
    metric(key, std::string(value));
}

std::string
BenchOutput::jsonLine() const
{
    std::string line = "{\"bench\":\"" + jsonEscape(_name) + '"';
    if (!_body.empty())
        line += ',' + _body;
    line += '}';
    return line;
}

void
BenchOutput::emit()
{
    if (!_provenance_added) {
        _provenance_added = true;
        // Who/what/where produced this line (process-constant).
        const Provenance &p = provenance();
        metric("run_id", p.run_id);
        metric("git_sha", p.git_sha);
        metric("build_type", p.build_type);
        metric("compiler", p.compiler);
        metric("host", p.host);
        // Per-event-kind host-time attribution, when any engine ran
        // with profiling armed (CEDAR_HOST_PROFILE=1 or programmatic).
        auto prof = HostProfiler::globalTable();
        if (!prof.empty()) {
            std::string arr = "[";
            std::size_t top = std::min<std::size_t>(prof.size(), 10);
            for (std::size_t i = 0; i < top; ++i) {
                if (i)
                    arr += ',';
                arr += "{\"kind\":\"" + jsonEscape(prof[i].kind) +
                       "\",\"dispatches\":" +
                       std::to_string(prof[i].dispatches) +
                       ",\"seconds\":" + jsonNumber(prof[i].seconds) +
                       '}';
            }
            arr += ']';
            add("host_profile", arr);
        }
    }
    std::string line = jsonLine();
    line += '\n';
    std::fflush(stdout);
    if (_saved_stdout >= 0) {
        // Restore the real stdout before printing the JSON line.
        ::dup2(_saved_stdout, STDOUT_FILENO);
        ::close(_saved_stdout);
        _saved_stdout = -1;
    }
    std::fputs(line.c_str(), stdout);
    std::fflush(stdout);
}

std::string
fmt(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
vsPaper(double measured, double paper, int decimals)
{
    return fmt(measured, decimals) + " (" + fmt(paper, decimals) + ")";
}

double
relativeError(double measured, double paper)
{
    sim_assert(paper != 0.0, "paper value must be nonzero");
    return std::abs(measured - paper) / std::abs(paper);
}

} // namespace cedar::core
