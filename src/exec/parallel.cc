/**
 * @file
 * Self-scheduled thread loop behind parallelMap().
 */

#include "parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace cedar::exec {

void
forEachIndex(unsigned jobs, std::size_t n,
             const std::function<void(std::size_t)> &task)
{
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            task(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::size_t error_index = n;
    std::exception_ptr error;

    // Indices are claimed in ascending order, so any task below a
    // failing one has already been claimed and runs to completion:
    // the rethrown error is the one a serial run would have raised.
    auto work = [&] {
        while (!failed) {
            std::size_t i = next++;
            if (i >= n)
                return;
            try {
                task(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
                failed = true;
            }
        }
    };

    {
        // jthread joins on scope exit, also if a later spawn throws.
        std::vector<std::jthread> helpers;
        const std::size_t threads = std::min<std::size_t>(jobs, n);
        for (std::size_t t = 1; t < threads; ++t)
            helpers.emplace_back(work);
        work();
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace cedar::exec
