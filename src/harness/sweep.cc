#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "sim/logging.hh"

namespace ifp::harness {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // anonymous namespace

SweepRunner::SweepRunner(unsigned jobs)
    : numJobs(jobs == 0 ? jobsFromEnv() : jobs)
{
}

unsigned
SweepRunner::jobsFromEnv()
{
    if (const char *env = std::getenv("IFP_BENCH_JOBS")) {
        char *end = nullptr;
        long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed >= 1)
            return static_cast<unsigned>(parsed);
        sim::warnImpl("ignoring invalid IFP_BENCH_JOBS='%s'", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::size_t
SweepRunner::enqueue(Experiment exp)
{
    ifp_assert(!ran, "enqueue after run()");
    experiments.push_back(std::move(exp));
    return experiments.size() - 1;
}

const std::vector<core::RunResult> &
SweepRunner::run()
{
    if (ran)
        return resultsVec;
    ran = true;

    const std::size_t n = experiments.size();
    resultsVec.resize(n);
    pointSecs.assign(n, 0.0);

    const auto sweepStart = Clock::now();
    auto runOne = [&](std::size_t i) {
        const auto start = Clock::now();
        resultsVec[i] = runExperiment(experiments[i]);
        pointSecs[i] = secondsSince(start);
    };

    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(numJobs, n));
    if (workers <= 1) {
        // Legacy serial path: no threads, no pool overhead.
        for (std::size_t i = 0; i < n; ++i)
            runOne(i);
    } else {
        // Work-stealing by atomic ticket: workers pull the next
        // un-run experiment, so long and short runs balance without
        // any static partitioning.
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                for (std::size_t i;
                     (i = next.fetch_add(1,
                                         std::memory_order_relaxed)) < n;)
                    runOne(i);
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    wall = secondsSince(sweepStart);
    serial = 0.0;
    for (double s : pointSecs)
        serial += s;
    return resultsVec;
}

const core::RunResult &
SweepRunner::result(std::size_t index) const
{
    ifp_assert(ran, "result() before run()");
    ifp_assert(index < resultsVec.size(), "result index %zu out of %zu",
               index, resultsVec.size());
    return resultsVec[index];
}

const std::vector<core::RunResult> &
SweepRunner::results() const
{
    ifp_assert(ran, "results() before run()");
    return resultsVec;
}

void
SweepRunner::reportPerf(const std::string &label) const
{
    if (!ran)
        return;
    const double speedup = wall > 0.0 ? serial / wall : 1.0;
    std::fprintf(stderr,
                 "[sweep] %s: %zu runs, jobs=%u, wall %.3fs, "
                 "serial %.3fs, speedup %.2fx\n",
                 label.c_str(), experiments.size(), numJobs, wall,
                 serial, speedup);
}

std::vector<core::RunResult>
runSweep(const std::vector<Experiment> &exps, unsigned jobs)
{
    SweepRunner runner(jobs);
    for (const Experiment &exp : exps)
        runner.enqueue(exp);
    return runner.run();
}

} // namespace ifp::harness
