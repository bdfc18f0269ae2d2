/**
 * @file
 * Implementation of the panic/fatal/warn/inform reporting helpers.
 */

#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "error.hh"

namespace cedar {

namespace {
// Atomic so a warn() on a sweep thread may read it while the
// driver thread is (atypically) still configuring; quiet mode is
// process-wide policy, not per-run state.
std::atomic<bool> quiet_mode{false};
}

void
setLogQuiet(bool quiet)
{
    quiet_mode.store(quiet, std::memory_order_relaxed);
}

bool
logQuiet()
{
    return quiet_mode.load(std::memory_order_relaxed);
}

namespace logging_detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::fflush(stderr);
    if (abortOnError())
        std::abort();
    // Throw rather than abort() so tests can EXPECT the failure and
    // embedders can recover; the exception type is never caught in
    // normal simulator runs, so the effect for a user is still
    // immediate termination with a message.
    throw SimError(SimError::Kind::assertion, "", currentErrorTick(), msg);
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::fflush(stderr);
    if (abortOnError())
        std::abort();
    throw SimError(SimError::Kind::config, "", currentErrorTick(), msg);
}

void
warnImpl(const std::string &msg)
{
    if (!quiet_mode)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!quiet_mode)
        std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace logging_detail
} // namespace cedar
