/**
 * @file
 * Quickstart: simulate the paper's gzip+twolf workload (2_MIX) on the
 * stream fetch engine with the ICOUNT.1.16 policy the paper proposes,
 * and print the headline metrics.
 *
 * Build & run:
 *   cmake -B build -S . && cmake --build build
 *   ./build/quickstart
 */

#include <iostream>

#include "sim/simulator.hh"

int
main()
{
    using namespace smt;

    // 1. Pick a Table 2 workload and a fetch architecture.
    SimConfig cfg = table3Config("2_MIX", EngineKind::Stream,
                                 /*fetch_threads=*/1,
                                 /*fetch_width=*/16);
    cfg.warmupCycles = 20'000;
    cfg.measureCycles = 100'000;

    // 2. Run.
    Simulator sim(cfg);
    sim.run();

    // 3. Inspect results.
    const SimStats &s = sim.stats();
    std::cout << "Config: " << cfg.describe() << "\n\n";
    std::cout << "Fetch throughput (IPFC): " << s.ipfc() << "\n";
    std::cout << "Commit throughput (IPC): " << s.ipc() << "\n";
    std::cout << "Wrong-path fetched:      " << s.wrongPathFetched
              << " of " << s.instsFetched << "\n";
    std::cout << "Branch mispredict rate:  "
              << s.branchMispredictRate() << "\n";
    for (unsigned t = 0; t < cfg.core.numThreads; ++t) {
        std::cout << "  thread " << t << " ("
                  << cfg.workload.benchmarks[t]
                  << ") IPC: " << s.threadIpc(t) << "\n";
    }
    return 0;
}
