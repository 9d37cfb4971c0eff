// Figure 8: performance of the multicast protocols in a WAN. Setup
// mirrors the paper's Google Cloud deployment: 3 data centres (Oregon R1,
// N. Virginia R2, England R3) with round trips R1-R2 60 ms, R2-R3 75 ms,
// R1-R3 130 ms; 10 groups, each with one replica per data centre; clients
// spread across the regions. Latencies are dominated by the number of
// protocol rounds, which is where the white-box protocol's 3-delta
// critical path shows.
//
// The WAN is described as a harness::TopologySpec — the same structure a
// deployment topology file parses into — and the simulator's delay model
// is derived from it (LinkMatrixDelay over the spec's one-way-delay
// matrix), so this sweep predicts exactly what scripts/wbam_deploy.py
// would shape with netem for the same file (docs/DEPLOYMENT.md).
#include "bench_load.hpp"

#include "harness/topology_spec.hpp"

namespace {

// One spec sized for the largest sweep point: replica r of each group
// lives in region r; clients are spread round-robin across regions.
wbam::harness::TopologySpec wan_spec(int clients) {
    using namespace wbam;
    harness::TopologySpec spec;
    spec.groups = 10;
    spec.group_size = 3;
    spec.clients = clients;
    spec.staggered_leaders = true;
    spec.regions = 3;
    const Duration local = microseconds(200);  // intra-DC RTT
    const Duration r12 = milliseconds(60);
    const Duration r23 = milliseconds(75);
    const Duration r13 = milliseconds(130);
    // One-way delay = RTT / 2 in each direction (symmetric links here;
    // the matrix itself is directed, so asymmetric WANs drop straight in).
    const auto owd = [](Duration rtt) { return rtt / 2; };
    spec.owd = {{owd(local), owd(r12), owd(r13)},
                {owd(r12), owd(local), owd(r23)},
                {owd(r13), owd(r23), owd(local)}};
    spec.jitter_frac = 0.02;  // 2% of the one-way delay, as before
    const Topology topo = spec.topology();
    spec.region_of.assign(static_cast<std::size_t>(topo.num_processes()), 0);
    for (ProcessId p = 0; p < topo.num_replicas(); ++p)
        spec.region_of[static_cast<std::size_t>(p)] = topo.replica_index(p);
    for (int c = 0; c < topo.num_clients(); ++c)
        spec.region_of[static_cast<std::size_t>(topo.client(c))] = c % 3;
    spec.endpoints.assign(static_cast<std::size_t>(topo.num_processes()), {});
    return spec;
}

}  // namespace

int main() {
    using namespace wbam;
    bench::SweepSetup setup;
    setup.name = "Figure 8 (WAN, 3 data centres)";
    setup.json_tag = "fig8";
    setup.groups = 10;
    setup.group_size = 3;
    // Spread the group leaders across the three data centres, as a real
    // deployment would for load and fault isolation; this is also what
    // makes inter-leader hops cost real WAN RTTs.
    setup.staggered_leaders = true;
    // The largest point's drivers plus the coordinator's pid.
    setup.make_delays = [] { return wan_spec(2001).delay_model(); };
    setup.cpu = bench::bench_cpu_model();
    setup.client_counts = {50, 150, 400, 700, 1000, 1400, 2000};
    setup.dest_group_counts = {1, 2, 6, 10};
    setup.warmup = seconds(2);
    setup.measure = seconds(2);
    if (bench::quick_mode()) {
        setup.client_counts = {100, 1000};
        setup.dest_group_counts = {1, 6};
    }
    bench::run_sweep(setup);
    return 0;
}
