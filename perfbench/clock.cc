/**
 * perfbench_clock: estimate the core clock the benchmark's threads run at.
 *
 *     perfbench_clock THREADS
 *
 * Each of THREADS threads runs a dependent 64-bit multiply-add chain of a
 * fixed length.  One link is an imul (3 cycles) feeding an add (1 cycle),
 * so the chain takes 4 cycles per link on every recent x86 core whatever
 * the clock.  Dividing by the thread's own CPU time (which excludes time
 * the thread or its virtual CPU was not running) gives that core's clock.
 * Prints the median over the threads, in GHz, on one line.
 *
 * run.py brackets every timed interval with this probe and reports times
 * at a fixed reference clock, so a shared host changing its clock between
 * runs does not read as a change of the program.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include <time.h>

namespace {

constexpr std::uint64_t kLinks = 25'000'000;
constexpr double kCyclesPerLink = 4.0;

double
threadCpuSeconds()
{
    timespec t;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double
chainGhz(std::uint64_t start)
{
    std::uint64_t x = start;
    const double t0 = threadCpuSeconds();
    for (std::uint64_t i = 0; i < kLinks; ++i) {
        x = x * 0x5851f42d4c957f2dULL + 1;
        // Keep the compiler from folding or vectorizing the chain.
        asm volatile("" : "+r"(x));
    }
    const double cpu = threadCpuSeconds() - t0;
    asm volatile("" : : "r"(x));
    return kCyclesPerLink * static_cast<double>(kLinks) / cpu * 1e-9;
}

} // namespace

int
main(int argc, char **argv)
{
    const int threads = argc == 2 ? std::atoi(argv[1]) : 0;
    if (threads < 1 || threads > 256) {
        std::fprintf(stderr, "usage: perfbench_clock THREADS\n");
        return 2;
    }
    std::vector<double> ghz(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i)
        pool.emplace_back([&ghz, i] {
            ghz[static_cast<std::size_t>(i)] =
                chainGhz(static_cast<std::uint64_t>(i) + 1);
        });
    for (auto &t : pool)
        t.join();
    std::sort(ghz.begin(), ghz.end());
    const std::size_t n = ghz.size();
    const double median =
        n % 2 ? ghz[n / 2] : 0.5 * (ghz[n / 2 - 1] + ghz[n / 2]);
    std::printf("%.6f\n", median);
    return 0;
}
