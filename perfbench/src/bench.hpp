// The benchmark's workloads and its metric table. One run builds the
// ctrl-plane cluster (2 groups x 3 NodeShim replicas, one BenchDriver
// with 4 closed-loop sessions, one Coordinator) on loopback TCP or inside
// sim::World, measures one window, and reports either the end-to-end
// metrics (untraced) or the per-layer ledger (traced). See README.md.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string scratch_dir = ".bench_build/perfbench/run";  // WAL files
    std::string spans_out;  // traced runs: span log written here if set
};

struct MetricDef {
    const char* name;
    const char* unit;
};

struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
};

struct Outcome {
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;  // exactly the table for the run's mode
    std::vector<std::string> problems;  // why `correct` is false
    std::vector<std::string> notes;     // human lines printed before JSON
};

const std::vector<std::string>& workload_names();
// Reported by untraced runs, in this order.
const std::vector<MetricDef>& end_to_end_metrics();
// Reported by traced runs (0 where a layer does not run in the workload).
const std::vector<MetricDef>& per_layer_metrics();

Outcome run(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP
