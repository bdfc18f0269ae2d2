/**
 * @file
 * Debug-trace flag management and line output.
 */

#include "trace.hh"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace cedar::trace {

namespace {

constexpr const char *flag_names[num_flags] = {
    "Cache", "Net", "GM", "Sync", "PFU", "Loops", "CCB", "Engine",
};

std::ostream *output = nullptr; // nullptr means stderr

/** The sink is shared by every simulation in the process; when traced
 *  runs execute on sweep threads, whole lines must not interleave
 *  mid-stream. Flag/sink *configuration* is still serial-phase-only
 *  (see DESIGN.md §10). */
std::mutex print_mu;

/** Parse CEDAR_DEBUG once at startup. */
unsigned
maskFromEnv()
{
    const char *spec = std::getenv("CEDAR_DEBUG");
    if (!spec || !*spec)
        return 0;
    // enableByName reports into flag_mask; seed it empty first.
    detail::flag_mask = 0;
    if (!enableByName(spec)) {
        std::fprintf(stderr,
                     "warning: CEDAR_DEBUG contains unknown flags "
                     "(known: Cache,Net,GM,Sync,PFU,Loops,CCB,Engine,"
                     "All)\n");
    }
    return detail::flag_mask;
}

} // namespace

namespace detail {

unsigned flag_mask = maskFromEnv();

} // namespace detail

void
enable(Flag f)
{
    detail::flag_mask |= 1u << static_cast<unsigned>(f);
}

void
disable(Flag f)
{
    detail::flag_mask &= ~(1u << static_cast<unsigned>(f));
}

void
enableAll()
{
    detail::flag_mask = (1u << num_flags) - 1;
}

void
disableAll()
{
    detail::flag_mask = 0;
}

bool
enableByName(const std::string &spec)
{
    bool all_known = true;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string token = spec.substr(start, comma - start);
        start = comma + 1;
        if (token.empty())
            continue;
        if (token == "All" || token == "all") {
            enableAll();
            continue;
        }
        bool known = false;
        for (unsigned i = 0; i < num_flags; ++i) {
            if (token == flag_names[i]) {
                enable(static_cast<Flag>(i));
                known = true;
                break;
            }
        }
        all_known = all_known && known;
    }
    return all_known;
}

const char *
flagName(Flag f)
{
    return flag_names[static_cast<unsigned>(f)];
}

std::vector<std::string>
flagNames()
{
    return {flag_names, flag_names + num_flags};
}

void
setOutput(std::ostream *os)
{
    output = os;
}

void
print(Tick when, const std::string &who, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(print_mu);
    std::ostream &os = output ? *output : std::cerr;
    os << when << ": " << who << ": " << msg << "\n";
}

} // namespace cedar::trace
