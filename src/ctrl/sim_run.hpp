// The benchmark plane on the simulator: the same NodeShim, BenchDriver and
// Coordinator roles a deployment runs as OS processes, placed in one
// sim::World. The figure sweeps (bench/bench_load.hpp), bench_ablation
// and `wbamctl sim` all measure through this one function, so simulated
// and deployed numbers come from the same closed loop, ack rule and
// coordinator validation.
#ifndef WBAM_CTRL_SIM_RUN_HPP
#define WBAM_CTRL_SIM_RUN_HPP

#include "ctrl/bench_plane.hpp"
#include "sim/world.hpp"

namespace wbam::ctrl {

// Runs one experiment: a NodeShim on every replica pid, the Coordinator on
// the last client pid (the seat `wbamctl run` takes) and a BenchDriver on
// every other client pid, each on its own simulated CPU. Returns once the
// coordinator has finished (validated, or failed at cfg.deadline of
// simulated time). Deterministic in its arguments.
RunResult run_in_sim(const Topology& topo, const CoordinatorConfig& cfg,
                     std::unique_ptr<sim::DelayModel> delays,
                     sim::CpuModel cpu, std::uint64_t seed);

}  // namespace wbam::ctrl

#endif  // WBAM_CTRL_SIM_RUN_HPP
