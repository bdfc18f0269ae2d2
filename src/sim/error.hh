/**
 * @file
 * Typed simulator errors.
 *
 * Every failure the simulator raises — broken invariants (panic /
 * sim_assert), unusable configurations (fatal), exhausted fault-retry
 * budgets, and watchdog-detected deadlock or livelock — is thrown as a
 * cedar::SimError. The type carries the failing component's name, the
 * simulated tick at which the failure was raised, and (for watchdog
 * errors) a diagnostic bundle with the machine's statistics and
 * in-flight state, so tests can assert on failure modes and embedders
 * can recover instead of losing the process.
 *
 * SimError derives from std::logic_error so legacy catch sites (and
 * tests written against the old panic behaviour) keep working.
 *
 * To stop at the raise site with the stack live, use the debugger's
 * `catch throw`: every raise site is a throw.
 */

#ifndef CEDARSIM_SIM_ERROR_HH
#define CEDARSIM_SIM_ERROR_HH

#include <stdexcept>
#include <string>

#include "sim/types.hh"

namespace cedar {

/** A typed, recoverable simulator error. */
class SimError : public std::logic_error
{
  public:
    /** What went wrong, at the coarsest useful granularity. */
    enum class Kind
    {
        assertion,       ///< broken internal invariant (panic/sim_assert)
        config,          ///< unusable user configuration (fatal)
        fault,           ///< injected hardware fault was unrecoverable
        retry_exhausted, ///< a retry budget ran out (lock, retransmit)
        deadlock,        ///< watchdog: waiters remain but no events do
        livelock,        ///< watchdog: events run but nothing progresses
        checkpoint,      ///< snapshot save/restore failed (corrupt,
                         ///< truncated, version-skewed, or the machine
                         ///< was not at a quiescent point)
    };

    SimError(Kind kind, std::string component, Tick tick,
             const std::string &message, std::string diagnostics = "");

    Kind kind() const { return _kind; }

    /** Name of the component that raised the error ("" if unknown). */
    const std::string &component() const { return _component; }

    /** Simulated tick at which the error was raised. */
    Tick tick() const { return _tick; }

    /**
     * Diagnostic bundle attached by the raiser (watchdog errors carry
     * the stat-registry snapshot and in-flight listings here). Empty
     * for plain assertion failures.
     */
    const std::string &diagnostics() const { return _diagnostics; }

    /** Human-readable name of a Kind. */
    static const char *kindName(Kind kind);

  private:
    Kind _kind;
    std::string _component;
    Tick _tick;
    std::string _diagnostics;
};

/**
 * Tick most recently made current by an executing Simulation (0 when no
 * event loop is running). Lets error sites below the engine layer stamp
 * errors with simulated time without a dependency on the engine.
 */
Tick currentErrorTick();

/** Engine-side hook: record the tick of the event being executed. */
void setCurrentErrorTick(Tick tick);

} // namespace cedar

#endif // CEDARSIM_SIM_ERROR_HH
