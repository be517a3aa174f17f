/**
 * @file
 * Experiment-spec example: define a sweep as a JSON document (the
 * same schema the smtsim CLI and configs/ use), expand it, run it on
 * all host threads, and walk the typed results — no CLI or config
 * file required.
 */

#include <iostream>

#include "sim/sweep_spec.hh"
#include "util/table.hh"

using namespace smt;

int
main()
{
    // A small ablation: how does the stream engine's ICOUNT.1.16
    // respond to FTQ depth on a mixed workload? Short windows keep
    // this example fast; configs/ablation_ftq.json is the full sweep.
    const char *text = R"({
        "name": "spec_sweep_example",
        "warmupCycles": 5000,
        "measureCycles": 25000,
        "seed": 0,
        "workloads": ["2_MIX"],
        "engines": ["stream"],
        "policies": ["1.16"],
        "overrides": { "ftqEntries": [1, 2, 4, 8] }
    })";

    SweepSpec spec;
    try {
        spec = SweepSpec::fromString(text);
    } catch (const SpecError &e) {
        std::cerr << "spec error: " << e.what() << '\n';
        return 1;
    }

    std::cout << "Expanded " << spec.expand().size()
              << " grid points from the spec\n\n";

    auto results = runSpec(spec).results;

    TextTable t({"variant", "IPFC", "IPC"});
    for (const auto &r : results)
        t.addRow({r.overrides.describe(), TextTable::num(r.ipfc),
                  TextTable::num(r.ipc)});
    t.print(std::cout, "FTQ depth vs throughput (2_MIX, stream 1.16)");

    std::cout << "\nDeeper FTQs decouple prediction from fetch; the "
                 "paper's choice of 4\nentries sits at the knee.\n";
    return 0;
}
