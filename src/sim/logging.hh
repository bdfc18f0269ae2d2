/**
 * @file
 * Error and status reporting in the gem5 tradition.
 *
 * panic()  — an internal simulator invariant was violated; throws a
 *            SimError of kind `assertion`.
 * fatal()  — the user asked for something impossible (bad config);
 *            throws a SimError of kind `config`.
 * warn()   — something is modeled approximately; simulation continues.
 * inform() — plain status output.
 */

#ifndef CEDARSIM_SIM_LOGGING_HH
#define CEDARSIM_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace cedar {

namespace logging_detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Fold a pack of streamable values into one string. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace logging_detail

/** Abort on a broken internal invariant (simulator bug). */
#define panic(...)                                                         \
    ::cedar::logging_detail::panicImpl(                                    \
        __FILE__, __LINE__, ::cedar::logging_detail::format(__VA_ARGS__))

/** Exit on an unusable user configuration. */
#define fatal(...)                                                         \
    ::cedar::logging_detail::fatalImpl(                                    \
        __FILE__, __LINE__, ::cedar::logging_detail::format(__VA_ARGS__))

/** Warn about approximate or suspicious behaviour and continue. */
#define warn(...)                                                          \
    ::cedar::logging_detail::warnImpl(                                     \
        ::cedar::logging_detail::format(__VA_ARGS__))

/** Emit an informational status message. */
#define inform(...)                                                        \
    ::cedar::logging_detail::informImpl(                                   \
        ::cedar::logging_detail::format(__VA_ARGS__))

/** panic() unless the condition holds. */
#define sim_assert(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::cedar::logging_detail::panicImpl(                            \
                __FILE__, __LINE__,                                        \
                ::cedar::logging_detail::format(                           \
                    "assertion '" #cond "' failed: ", ##__VA_ARGS__));     \
        }                                                                  \
    } while (0)

/** Quiet-mode switch for tests: suppresses warn()/inform() output. */
void setLogQuiet(bool quiet);
bool logQuiet();

} // namespace cedar

#endif // CEDARSIM_SIM_LOGGING_HH
