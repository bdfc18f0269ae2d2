/**
 * @file
 * Deterministic fan-out/merge of independent simulation runs.
 *
 * parallelMap() is the one primitive sweeps are written against: hand
 * it the parameter points as tasks, get the results back *in
 * submission order* regardless of completion order. With jobs <= 1 it
 * never touches a thread — the tasks run inline, in order, in the
 * calling thread — so `--jobs 1` is not "a pool with one worker" but
 * literally the serial path. Otherwise the threads self-schedule the
 * way Cedar's XDOALL does: each claims the next task index from one
 * shared counter. Byte-identity of `--jobs 1` versus `--jobs 8` output
 * then reduces to each task constructing its own world (DESIGN.md §10)
 * plus the index-ordered result slots.
 */

#ifndef CEDARSIM_EXEC_PARALLEL_HH
#define CEDARSIM_EXEC_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace cedar::exec {

/**
 * Call @p task(i) once for every i in [0, n). With jobs <= 1 (or one
 * task) this is a plain loop and the first exception propagates at
 * once. Otherwise min(jobs, n) threads, the calling thread included,
 * claim indices in ascending order from one atomic counter. Once a
 * task throws, tasks not yet claimed are skipped and running ones
 * finish; after the join the exception of the lowest-index task that
 * threw is rethrown.
 */
void forEachIndex(unsigned jobs, std::size_t n,
                  const std::function<void(std::size_t)> &task);

/**
 * Run every task (each an independent parameter point) and return
 * their results indexed by submission order.
 *
 * @tparam T result type; default-constructible, one slot per task
 *           (avoid std::vector<bool>-style proxy containers)
 * @param jobs  threads; <= 1 executes inline serially
 * @param tasks independent runs; each builds its own machine and
 *              shares no mutable state with the others
 * @throws whatever the lowest-index failing task threw
 */
template <typename T>
std::vector<T>
parallelMap(unsigned jobs, std::vector<std::function<T()>> tasks)
{
    std::vector<T> results(tasks.size());
    forEachIndex(jobs, tasks.size(),
                 [&](std::size_t i) { results[i] = tasks[i](); });
    return results;
}

} // namespace cedar::exec

#endif // CEDARSIM_EXEC_PARALLEL_HH
