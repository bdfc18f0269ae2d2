/**
 * @file
 * Per-subsystem debug tracing in the gem5 DPRINTF tradition.
 *
 * Every subsystem has a trace flag (Cache, Net, GM, Sync, PFU, Loops,
 * CCB, Engine). Flags are enabled programmatically or through the
 * CEDAR_DEBUG environment variable ("CEDAR_DEBUG=Cache,Net", or
 * "CEDAR_DEBUG=All"), and each trace line is stamped with the current
 * tick and the emitting component's hierarchical name:
 *
 *     412: cedar.cluster0.cache: miss lines=3 addr=1024
 *
 * With a flag disabled the corresponding DPRINTF compiles down to one
 * predictable branch on a global bitmask — no argument formatting, no
 * function call.
 */

#ifndef CEDARSIM_SIM_TRACE_HH
#define CEDARSIM_SIM_TRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace cedar::trace {

/** Debug-trace flags, one per subsystem. */
enum class Flag : unsigned
{
    Cache,  ///< cluster shared cache
    Net,    ///< omega networks
    GM,     ///< global memory reads/writes
    Sync,   ///< Test-And-Operate synchronization
    PFU,    ///< prefetch units
    Loops,  ///< CDOALL/XDOALL/SDOALL runtime
    CCB,    ///< concurrency control bus
    Engine, ///< event-queue execution
    num_flags,
};

constexpr unsigned num_flags = static_cast<unsigned>(Flag::num_flags);

namespace detail {

/** Bitmask of enabled flags; seeded from CEDAR_DEBUG at startup. */
extern unsigned flag_mask;

} // namespace detail

/** True when @p f is enabled (the DPRINTF fast-path check). */
inline bool
enabled(Flag f)
{
    return (detail::flag_mask >> static_cast<unsigned>(f)) & 1u;
}

void enable(Flag f);
void disable(Flag f);
void enableAll();
void disableAll();

/**
 * Enable flags from a spec string: comma-separated flag names, or
 * "All". @return false (leaving valid names enabled) if any name was
 * unknown.
 */
bool enableByName(const std::string &spec);

/** Canonical name of a flag ("Cache", "Net", ...). */
const char *flagName(Flag f);

/** All flag names, in enum order (for --help style listings). */
std::vector<std::string> flagNames();

/** Redirect trace output (nullptr restores the default, stderr). */
void setOutput(std::ostream *os);

/** Emit one formatted trace line (called by the DPRINTF macros). */
void print(Tick when, const std::string &who, const std::string &msg);

} // namespace cedar::trace

/**
 * Trace from inside a Named component: DPRINTF(Cache, now, "miss ...").
 * Uses the enclosing object's name() for attribution.
 */
#define DPRINTF(flag, when, ...)                                           \
    do {                                                                   \
        if (::cedar::trace::enabled(::cedar::trace::Flag::flag)) {         \
            ::cedar::trace::print(                                         \
                (when), name(),                                            \
                ::cedar::logging_detail::format(__VA_ARGS__));             \
        }                                                                  \
    } while (0)

/** Trace with an explicit component name (for non-Named contexts). */
#define DPRINTFN(flag, when, who, ...)                                     \
    do {                                                                   \
        if (::cedar::trace::enabled(::cedar::trace::Flag::flag)) {         \
            ::cedar::trace::print(                                         \
                (when), (who),                                             \
                ::cedar::logging_detail::format(__VA_ARGS__));             \
        }                                                                  \
    } while (0)

#endif // CEDARSIM_SIM_TRACE_HH
