#include "ctrl/sim_run.hpp"

namespace wbam::ctrl {

RunResult run_in_sim(const Topology& topo, const CoordinatorConfig& cfg,
                     std::unique_ptr<sim::DelayModel> delays,
                     sim::CpuModel cpu, std::uint64_t seed) {
    sim::World world(topo, std::move(delays), seed, cpu);
    const ProcessId coord_pid = topo.client(topo.num_clients() - 1);
    auto coordinator = std::make_unique<Coordinator>(topo, cfg);
    const Coordinator& coord = *coordinator;
    world.add_process(coord_pid, std::move(coordinator));
    for (ProcessId p = 0; p < topo.num_processes(); ++p) {
        if (topo.is_replica(p))
            world.add_process(
                p, std::make_unique<NodeShim>(topo, p, coord_pid, nullptr));
        else if (p != coord_pid)
            world.add_process(
                p, std::make_unique<BenchDriver>(topo, coord_pid, nullptr));
    }
    world.start();
    // The coordinator's own tick enforces cfg.deadline, so this ends.
    while (!coord.finished()) world.run_for(milliseconds(10));
    return coord.result();
}

}  // namespace wbam::ctrl
