// Closed-loop load experiment driver for the Fig. 7 / Fig. 8 benchmarks:
// builds a simulated cluster of the requested protocol, attaches
// closed-loop load clients, runs a warmup phase, then measures throughput
// and the paper's latency metric over a window of virtual time. The run
// is deterministic. Wall-clock figures come from the distributed bench
// plane instead (src/ctrl/, driven by `wbamctl run`).
#ifndef WBAM_HARNESS_EXPERIMENT_HPP
#define WBAM_HARNESS_EXPERIMENT_HPP

#include "client/load_client.hpp"
#include "harness/cluster.hpp"

namespace wbam::harness {

struct ExperimentConfig {
    ProtocolKind kind = ProtocolKind::wbcast;
    int groups = 10;
    int group_size = 3;
    int clients = 100;
    int dest_groups = 1;
    bool staggered_leaders = false;
    std::uint32_t payload = 20;  // bytes, as in the paper
    std::function<std::unique_ptr<sim::DelayModel>()> make_delays;
    sim::CpuModel cpu;
    ReplicaConfig replica;
    std::uint64_t seed = 1;
    Duration warmup = milliseconds(200);
    // The measurement window closes once target_ops completions AND
    // min_measure simulated time have both been reached (or max_measure
    // elapses).
    std::uint64_t target_ops = 3000;
    Duration min_measure = milliseconds(500);
    Duration max_measure = seconds(60);
};

struct ExperimentResult {
    double throughput_ops_s = 0;  // completed multicasts per measured second
    double mean_ms = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    std::uint64_t ops = 0;
};

ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace wbam::harness

#endif  // WBAM_HARNESS_EXPERIMENT_HPP
