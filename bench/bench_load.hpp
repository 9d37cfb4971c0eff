// Shared load-sweep driver for the Fig. 7 (LAN) and Fig. 8 (WAN)
// benchmarks: for each protocol and destination-group count, sweeps the
// number of closed-loop clients and prints (clients, throughput, latency)
// series — the same series the paper's figures plot. Every point is one
// run of the benchmark plane on the simulator (ctrl/sim_run.hpp): one
// BenchDriver pid with one session per client, so each client keeps its
// own simulated CPU, and the coordinator on one extra client pid. Latency
// is stamped at the client when the last destination group's ack arrives.
#ifndef WBAM_BENCH_BENCH_LOAD_HPP
#define WBAM_BENCH_BENCH_LOAD_HPP

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "ctrl/sim_run.hpp"
#include "harness/fig_report.hpp"

namespace wbam::bench {

struct SweepSetup {
    const char* name = "";
    // "fig7" / "fig8": tags the emitted BENCH_<tag>.json (path override:
    // the BENCH_FIG_JSON environment variable; empty tag = no JSON).
    const char* json_tag = "";
    std::function<std::unique_ptr<sim::DelayModel>()> make_delays;
    sim::CpuModel cpu;
    std::vector<int> client_counts;
    std::vector<int> dest_group_counts;
    int groups = 10;
    int group_size = 3;
    bool staggered_leaders = false;
    Duration warmup = milliseconds(200);
    Duration measure = milliseconds(400);  // fixed window; halved when quick
};

// The spec every sweep point shares: failure machinery kept quiet during
// failure-free load runs, a 2 s client retry, and the
// implementation-cost model (calibration in EXPERIMENTS.md): the
// black-box baselines drive two consensus commands per message through a
// general-purpose engine; the white-box path pays only lightweight
// timestamp bookkeeping.
inline ctrl::BenchSpec sweep_spec() {
    ctrl::BenchSpec spec;
    spec.payload = 20;  // the paper uses 20-byte messages
    spec.sessions = 1;
    spec.client_retry = seconds(2);
    // Divides every sweep's warmup + window, so each driver's final SAMPLE
    // tick, and with it DRIVER_DONE, lands right after its window closes.
    spec.sample_interval = milliseconds(100);
    spec.heartbeat_interval = milliseconds(100);
    spec.suspect_timeout = seconds(30);
    spec.retry_interval = seconds(20);
    spec.consensus_cmd_cost = microseconds(12);
    spec.wbcast_multicast_cost = microseconds(10);
    spec.wbcast_accept_cost = nanoseconds(500);
    return spec;
}

inline sim::CpuModel bench_cpu_model() {
    return sim::CpuModel{.per_message = nanoseconds(300),
                         .per_byte = nanoseconds(2),
                         .wakeup = microseconds(3)};
}

// True when the environment asks for a reduced sweep (used while iterating
// on the code; the full run is the default).
inline bool quick_mode() { return std::getenv("WBAM_BENCH_QUICK") != nullptr; }

// One sweep point: `clients` drivers plus the coordinator's pid. Exits the
// process if the coordinator's validation fails.
inline harness::FigPoint run_point(const Topology& topo,
                                   const ctrl::CoordinatorConfig& ccfg,
                                   std::unique_ptr<sim::DelayModel> delays,
                                   sim::CpuModel cpu, std::uint64_t seed) {
    const ctrl::RunResult r =
        ctrl::run_in_sim(topo, ccfg, std::move(delays), cpu, seed);
    if (!r.ok) {
        std::fprintf(stderr, "sweep point failed: %s\n", r.error.c_str());
        std::exit(1);
    }
    return r.point;
}

inline void run_sweep(const SweepSetup& setup) {
    using harness::ProtocolKind;
    const ProtocolKind kinds[] = {ProtocolKind::wbcast, ProtocolKind::fastcast,
                                  ProtocolKind::ftskeen};
    std::printf("=== %s: latency vs throughput, %d groups x %d replicas, "
                "20-byte messages, runtime=sim ===\n",
                setup.name, setup.groups, setup.group_size);
    // protocol -> d -> points; kept for the cross-protocol summary.
    std::map<int, std::map<int, std::vector<harness::FigPoint>>> all;
    for (const ProtocolKind kind : kinds) {
        for (const int d : setup.dest_group_counts) {
            std::printf("\n-- %s, multicast to %d group(s) --\n",
                        harness::to_string(kind), d);
            std::printf("%8s %16s %14s %12s %12s\n", "clients", "msgs/s",
                        "mean ms", "p50 ms", "p99 ms");
            for (const int clients : setup.client_counts) {
                const auto seed = static_cast<std::uint64_t>(clients) * 31 +
                                  static_cast<std::uint64_t>(d);
                ctrl::CoordinatorConfig ccfg;
                ccfg.spec = sweep_spec();
                ccfg.spec.proto = kind;
                ccfg.spec.dest_groups = static_cast<std::uint32_t>(d);
                ccfg.spec.seed = seed;
                ccfg.spec.warmup = setup.warmup;
                ccfg.spec.measure =
                    quick_mode() ? setup.measure / 2 : setup.measure;
                ccfg.shared_epoch = true;  // one simulated clock
                const Topology topo(setup.groups, setup.group_size,
                                    clients + 1, setup.staggered_leaders);
                const harness::FigPoint pt = run_point(
                    topo, ccfg, setup.make_delays(), setup.cpu, seed);
                std::printf("%8d %16.0f %14.3f %12.3f %12.3f\n", clients,
                            pt.throughput_ops_s, pt.mean_ms, pt.p50_ms,
                            pt.p99_ms);
                all[static_cast<int>(kind)][d].push_back(pt);
            }
        }
    }
    // The merged BENCH_fig7/fig8 JSON (same schema as `wbamctl run` —
    // docs/BENCHMARKS.md).
    if (setup.json_tag[0] != '\0') {
        harness::FigReport report;
        report.bench = setup.json_tag;
        report.name = setup.name;
        report.runtime = "sim";
        report.groups = setup.groups;
        report.group_size = setup.group_size;
        for (const ProtocolKind kind : kinds) {
            for (const int d : setup.dest_group_counts) {
                harness::FigSeries series;
                series.protocol = harness::to_string(kind);
                series.dest_groups = d;
                series.points = all[static_cast<int>(kind)][d];
                report.series.push_back(std::move(series));
            }
        }
        const char* path = std::getenv("BENCH_FIG_JSON");
        const std::string out =
            path != nullptr ? path
                            : "BENCH_" + std::string(setup.json_tag) + ".json";
        if (report.write(out))
            std::printf("\n(wrote %s)\n", out.c_str());
    }
    // Headline comparison at 1000 clients (the point the paper marks).
    std::printf("\n-- comparison at 1000 clients (WbCast vs FastCast) --\n");
    std::printf("%8s %22s %22s\n", "dests", "throughput ratio", "latency ratio");
    for (const int d : setup.dest_group_counts) {
        const auto& wb = all[static_cast<int>(harness::ProtocolKind::wbcast)][d];
        const auto& fc =
            all[static_cast<int>(harness::ProtocolKind::fastcast)][d];
        const harness::FigPoint* wb_pt = nullptr;
        const harness::FigPoint* fc_pt = nullptr;
        for (const auto& p : wb)
            if (p.clients == 1000) wb_pt = &p;
        for (const auto& p : fc)
            if (p.clients == 1000) fc_pt = &p;
        if (!wb_pt || !fc_pt || fc_pt->throughput_ops_s <= 0 ||
            wb_pt->mean_ms <= 0)
            continue;
        std::printf("%8d %21.2fx %21.2fx\n", d,
                    wb_pt->throughput_ops_s / fc_pt->throughput_ops_s,
                    fc_pt->mean_ms / wb_pt->mean_ms);
    }
}

}  // namespace wbam::bench

#endif  // WBAM_BENCH_BENCH_LOAD_HPP
