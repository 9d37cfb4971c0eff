// wbamctl — control CLI of the distributed benchmark plane.
//
//   wbamctl run --topology=FILE [--proto=wbcast] [--dest-groups=1]
//               [--sessions=4] [--payload=20] [--warmup-ms=500]
//               [--measure-ms=3000] [--sample-ms=250] [--seed=1]
//               [--batching] [--epoch-ns=T] [--net-shards=N]
//               [--deadline-ms=120000]
//               [--workload=bytes|kv] [--kv-keys=1000] [--kv-theta=0.99]
//               [--kv-read-pct=50] [--kv-cross-pct=10]
//               [--metrics-dump=FILE]
//               [--fig=7] [--out=BENCH_fig7.json] [-v]
//
//     Takes the coordinator seat (the LAST client pid of the topology
//     file), distributes the experiment spec to every wbamd --bench
//     process, opens the measurement window, merges the streamed latency
//     samples, validates that every replica group agrees on its delivery
//     sequence, and writes the merged BENCH_fig7/fig8-schema JSON.
//     Exit 0 only on a validated run.
//
//   wbamctl sim --topology=FILE [same flags as run] [--out=...]
//
//     Runs the SAME experiment on the deterministic simulator: the same
//     coordinator, driver and replica roles (ctrl::run_in_sim), over a
//     sim::LinkMatrixDelay built from the file's owd matrix. Emits the
//     same JSON schema (series only) — the simulated prediction of the
//     deployed run. Exit 0 only on a validated run.
//
//   wbamctl topology [--groups=2] [--group-size=3] [--gen-clients=3]
//                    [--regions=2] [--local=100us] [--cross=20ms]
//                    [--base-port=7000] [--out=FILE]
//   wbamctl topology --check=FILE
//
//     Generates a grouped topology file (replicas regioned by group,
//     clients round-robin) or validates an existing one.
//
// Deployment modes and the file format: docs/DEPLOYMENT.md.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/log.hpp"
#include "ctrl/bench_plane.hpp"
#include "ctrl/sim_run.hpp"
#include "obs/stage.hpp"
#include "harness/topology_spec.hpp"
#include "net/world.hpp"

using namespace wbam;

namespace {

struct CtlOptions {
    std::string topology_file;
    std::string check_file;
    std::string out;
    std::string metrics_dump;  // run only: cluster-merged metrics JSON
    harness::ProtocolKind proto = harness::ProtocolKind::wbcast;
    int dest_groups = 1;
    int sessions = 4;
    int payload = 20;
    int warmup_ms = 500;
    int measure_ms = 3000;
    int sample_ms = 250;
    int deadline_ms = 120'000;
    std::uint64_t seed = 1;
    bool batching = false;
    std::int64_t epoch_ns = 0;
    // Scale-out KV workload
    ctrl::WorkloadKind workload = ctrl::WorkloadKind::bytes;
    int kv_keys = 1000;
    double kv_theta = 0.99;
    int kv_read_pct = 50;
    int kv_cross_pct = 10;
    int net_shards = 0;  // coordinator-side NetWorld shards; 0 = auto
    int fig = 7;
    bool verbose = false;
    // topology generation
    int groups = 2;
    int group_size = 3;
    int gen_clients = 3;
    int regions = 2;
    Duration local = microseconds(100);
    Duration cross = milliseconds(20);
    int base_port = 7000;
};

const char* flag_value(const char* arg, const char* name) {
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
    return nullptr;
}

bool parse_flags(int argc, char** argv, int first, CtlOptions& o) {
    for (int i = first; i < argc; ++i) {
        const char* v = nullptr;
        auto int_flag = [&](const char* name, int* out, int min, int max) {
            if ((v = flag_value(argv[i], name)) == nullptr) return false;
            char* end = nullptr;
            const long parsed = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || parsed < min || parsed > max) {
                std::fprintf(stderr,
                             "wbamctl: bad value in %s (range %d..%d)\n",
                             argv[i], min, max);
                std::exit(2);
            }
            *out = static_cast<int>(parsed);
            return true;
        };
        auto dur_flag = [&](const char* name, Duration* out) {
            if ((v = flag_value(argv[i], name)) == nullptr) return false;
            const auto d = harness::parse_duration(v);
            if (!d) {
                std::fprintf(stderr, "wbamctl: bad duration in %s\n", argv[i]);
                std::exit(2);
            }
            *out = *d;
            return true;
        };
        if ((v = flag_value(argv[i], "--topology"))) {
            o.topology_file = v;
        } else if ((v = flag_value(argv[i], "--check"))) {
            o.check_file = v;
        } else if ((v = flag_value(argv[i], "--out"))) {
            o.out = v;
        } else if ((v = flag_value(argv[i], "--metrics-dump"))) {
            o.metrics_dump = v;
        } else if ((v = flag_value(argv[i], "--proto"))) {
            const auto kind = harness::parse_protocol_kind(v);
            if (!kind) {
                std::fprintf(stderr, "wbamctl: unknown --proto=%s\n", v);
                return false;
            }
            o.proto = *kind;
        } else if ((v = flag_value(argv[i], "--seed"))) {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if ((v = flag_value(argv[i], "--epoch-ns"))) {
            o.epoch_ns = static_cast<std::int64_t>(
                std::strtoull(v, nullptr, 10));
        } else if ((v = flag_value(argv[i], "--workload"))) {
            if (std::strcmp(v, "bytes") == 0) {
                o.workload = ctrl::WorkloadKind::bytes;
            } else if (std::strcmp(v, "kv") == 0) {
                o.workload = ctrl::WorkloadKind::kv;
            } else {
                std::fprintf(stderr, "wbamctl: unknown --workload=%s\n", v);
                return false;
            }
        } else if ((v = flag_value(argv[i], "--kv-theta"))) {
            char* end = nullptr;
            o.kv_theta = std::strtod(v, &end);
            if (end == v || *end != '\0' || o.kv_theta < 0 ||
                o.kv_theta >= 1) {
                std::fprintf(stderr,
                             "wbamctl: --kv-theta must be in [0,1)\n");
                std::exit(2);
            }
        } else if (int_flag("--kv-keys", &o.kv_keys, 2, 100'000'000) ||
                   int_flag("--kv-read-pct", &o.kv_read_pct, 0, 100) ||
                   int_flag("--kv-cross-pct", &o.kv_cross_pct, 0, 100) ||
                   int_flag("--dest-groups", &o.dest_groups, 1, 4096) ||
                   int_flag("--sessions", &o.sessions, 1, 1 << 16) ||
                   int_flag("--payload", &o.payload, 0, 4 << 20) ||
                   int_flag("--warmup-ms", &o.warmup_ms, 0, 3'600'000) ||
                   int_flag("--measure-ms", &o.measure_ms, 1, 3'600'000) ||
                   int_flag("--sample-ms", &o.sample_ms, 1, 60'000) ||
                   int_flag("--deadline-ms", &o.deadline_ms, 1, 86'400'000) ||
                   int_flag("--net-shards", &o.net_shards, 0, 64) ||
                   int_flag("--fig", &o.fig, 7, 8) ||
                   int_flag("--groups", &o.groups, 1, 4096) ||
                   int_flag("--group-size", &o.group_size, 1, 99) ||
                   int_flag("--gen-clients", &o.gen_clients, 1, 1 << 20) ||
                   int_flag("--regions", &o.regions, 1, 64) ||
                   int_flag("--base-port", &o.base_port, 1, 65535) ||
                   dur_flag("--local", &o.local) ||
                   dur_flag("--cross", &o.cross)) {
        } else if (std::strcmp(argv[i], "--batching") == 0) {
            o.batching = true;
        } else if (std::strcmp(argv[i], "-v") == 0) {
            o.verbose = true;
        } else {
            std::fprintf(stderr, "wbamctl: unknown argument: %s\n", argv[i]);
            return false;
        }
    }
    return true;
}

ctrl::BenchSpec spec_from(const CtlOptions& o) {
    ctrl::BenchSpec spec;
    spec.proto = o.proto;
    spec.dest_groups = static_cast<std::uint32_t>(o.dest_groups);
    spec.payload = static_cast<std::uint32_t>(o.payload);
    spec.sessions = static_cast<std::uint32_t>(o.sessions);
    spec.warmup = milliseconds(o.warmup_ms);
    spec.measure = milliseconds(o.measure_ms);
    spec.sample_interval = milliseconds(o.sample_ms);
    spec.seed = o.seed;
    spec.batching_enabled = o.batching;
    spec.net_shards = static_cast<std::uint32_t>(o.net_shards);
    spec.workload = o.workload;
    spec.kv_keys = static_cast<std::uint32_t>(o.kv_keys);
    spec.kv_theta_milli = static_cast<std::uint32_t>(o.kv_theta * 1000.0);
    spec.kv_read_pct = static_cast<std::uint32_t>(o.kv_read_pct);
    spec.kv_cross_pct = static_cast<std::uint32_t>(o.kv_cross_pct);
    return spec;
}

// The topology file `run` and `sim` drive, after the checks they share.
std::optional<harness::TopologySpec> load_bench_topology(const CtlOptions& o,
                                                         const char* cmd) {
    if (o.topology_file.empty()) {
        std::fprintf(stderr, "wbamctl %s: --topology=FILE is required\n", cmd);
        return std::nullopt;
    }
    if (o.kv_read_pct + o.kv_cross_pct > 100) {
        std::fprintf(stderr,
                     "wbamctl %s: --kv-read-pct + --kv-cross-pct "
                     "must not exceed 100\n",
                     cmd);
        return std::nullopt;
    }
    std::string error;
    auto spec = harness::TopologySpec::load(o.topology_file, &error);
    if (!spec) {
        std::fprintf(stderr, "wbamctl: %s\n", error.c_str());
        return std::nullopt;
    }
    if (spec->clients < 2) {
        std::fprintf(stderr,
                     "wbamctl %s: topology needs >= 2 client pids "
                     "(drivers + the coordinator seat)\n",
                     cmd);
        return std::nullopt;
    }
    return spec;
}

ctrl::CoordinatorConfig coordinator_config(const CtlOptions& o) {
    ctrl::CoordinatorConfig ccfg;
    ccfg.spec = spec_from(o);
    ccfg.shared_epoch = o.epoch_ns > 0;
    ccfg.deadline = milliseconds(o.deadline_ms);
    return ccfg;
}

std::string default_out(const CtlOptions& o) {
    return o.out.empty()
               ? (o.fig == 8 ? "BENCH_fig8.json" : "BENCH_fig7.json")
               : o.out;
}

// The FigReport of one finished run (one series, one point), shared by
// `run` and `sim`; `run` adds its telemetry sections on top.
harness::FigReport fig_report(const CtlOptions& o,
                              const harness::TopologySpec& spec,
                              const char* runtime, const ctrl::RunResult& r) {
    harness::FigReport report;
    report.bench = o.fig == 8 ? "fig8" : "fig7";
    report.runtime = runtime;
    report.groups = spec.groups;
    report.group_size = spec.group_size;
    report.payload = static_cast<std::uint32_t>(o.payload);
    report.net_shards = o.net_shards;
    report.name = std::string(harness::to_string(o.proto)) + ", " +
                  std::to_string(spec.groups) + "x" +
                  std::to_string(spec.group_size) + " replicas, " +
                  std::to_string(spec.regions) + " regions";
    if (o.workload == ctrl::WorkloadKind::kv) {
        report.workload = "kv";
        report.kv_keys = static_cast<std::uint32_t>(o.kv_keys);
        report.kv_theta = o.kv_theta;
        report.kv_read_pct = static_cast<std::uint32_t>(o.kv_read_pct);
        report.kv_cross_pct = static_cast<std::uint32_t>(o.kv_cross_pct);
        report.name += ", kv zipf " + std::to_string(o.kv_theta);
    }
    harness::FigSeries series;
    series.protocol = harness::to_string(o.proto);
    series.dest_groups = o.dest_groups;
    series.points.push_back(r.point);
    report.series.push_back(std::move(series));
    return report;
}

void print_ok(const char* cmd, const ctrl::RunResult& r, int replicas,
              const std::string& out) {
    const harness::FigPoint& pt = r.point;
    std::printf(
        "wbamctl %s: OK — %d sessions on %d drivers: %.0f ops/s, "
        "mean %.2f ms, p50 %.2f ms, p99 %.2f ms (%llu ops, %llu samples; "
        "delivery sequences validated on all %d replicas) -> %s\n",
        cmd, pt.clients, r.drivers, pt.throughput_ops_s, pt.mean_ms,
        pt.p50_ms, pt.p99_ms, static_cast<unsigned long long>(pt.ops),
        static_cast<unsigned long long>(r.samples_streamed), replicas,
        out.c_str());
}

int cmd_run(const CtlOptions& o) {
    const auto spec = load_bench_topology(o, "run");
    if (!spec) return 2;
    const Topology topo = spec->topology();
    const ProcessId self = topo.client(topo.num_clients() - 1);

    net::NetConfig ncfg;
    ncfg.shards = o.net_shards;
    if (spec->cluster_map().of(self).host != "127.0.0.1")
        ncfg.bind_host = "0.0.0.0";
    if (o.epoch_ns > 0)
        ncfg.epoch = std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::nanoseconds(o.epoch_ns)));
    net::NetWorld world(topo, static_cast<std::uint64_t>(self) + 1, ncfg);
    auto coordinator =
        std::make_unique<ctrl::Coordinator>(topo, coordinator_config(o));
    ctrl::Coordinator* coord = coordinator.get();
    world.add_process(self, std::move(coordinator),
                      spec->cluster_map().of(self).port);
    world.set_cluster(spec->cluster_map());
    world.start();

    const int slices = o.deadline_ms / 10 + 100;
    for (int s = 0; s < slices && !coord->finished(); ++s)
        world.run_for(milliseconds(10));
    world.shutdown();

    const ctrl::RunResult r = coord->result();
    if (!r.ok) {
        std::fprintf(stderr, "wbamctl run: FAILED — %s\n",
                     coord->finished() ? r.error.c_str()
                                       : "coordinator never finished");
        return 1;
    }

    harness::FigReport report = fig_report(o, *spec, "net-distributed", r);
    report.driver_processes = r.drivers;
    report.samples_streamed = r.samples_streamed;

    // White-box stage breakdown: cumulative-from-submit latency per
    // protocol phase, bucket-merged across every replica (exact
    // percentiles), plus an e2e row from the driver-side sample merge.
    // Consecutive p50 deltas (segment_ms) telescope to the delivered
    // median; the e2e segment is the deliver -> client-ack return hop.
    const std::string stage_prefix =
        std::string("stage/") + harness::protocol_id(o.proto) + "/";
    double prev_p50 = 0;
    for (int s = 0; s < obs::num_stages; ++s) {
        const char* stage_name = obs::to_string(static_cast<obs::Stage>(s));
        const auto it =
            coord->merged_histograms().find(stage_prefix + stage_name);
        if (it == coord->merged_histograms().end() ||
            it->second.count() == 0)
            continue;
        harness::FigStage row;
        row.name = stage_name;
        row.count = it->second.count();
        row.p50_ms = to_millis(it->second.percentile(0.50));
        row.p99_ms = to_millis(it->second.percentile(0.99));
        row.segment_ms = row.p50_ms - prev_p50;
        prev_p50 = row.p50_ms;
        report.stages.push_back(std::move(row));
    }
    if (!report.stages.empty() && coord->merged_latency().count() > 0) {
        harness::FigStage e2e;
        e2e.name = "e2e";
        e2e.count = coord->merged_latency().count();
        e2e.p50_ms = to_millis(coord->merged_latency().percentile(0.50));
        e2e.p99_ms = to_millis(coord->merged_latency().percentile(0.99));
        e2e.segment_ms = e2e.p50_ms - prev_p50;
        report.stages.push_back(std::move(e2e));
    }
    for (const auto& [name, value] : coord->merged_counters())
        report.metrics.emplace_back(name, value);

    const std::string out = default_out(o);
    if (!report.write(out)) return 1;
    print_ok("run", r, topo.num_replicas(), out);
    if (!report.stages.empty()) {
        std::printf("wbamctl run: stage breakdown (%s, cluster-merged):\n",
                    harness::to_string(o.proto));
        std::printf("  %-16s %10s %10s %10s %10s\n", "stage", "count",
                    "p50_ms", "segment", "p99_ms");
        for (const harness::FigStage& st : report.stages)
            std::printf("  %-16s %10llu %10.2f %10.2f %10.2f\n",
                        st.name.c_str(),
                        static_cast<unsigned long long>(st.count), st.p50_ms,
                        st.segment_ms, st.p99_ms);
    }
    if (!o.metrics_dump.empty()) {
        obs::MetricsSnapshot merged;
        merged.counters.assign(coord->merged_counters().begin(),
                               coord->merged_counters().end());
        merged.histograms.assign(coord->merged_histograms().begin(),
                                 coord->merged_histograms().end());
        std::FILE* f = std::fopen(o.metrics_dump.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "wbamctl run: cannot write %s\n",
                         o.metrics_dump.c_str());
            return 1;
        }
        const std::string json = merged.to_json();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("wbamctl run: cluster-merged metrics -> %s\n",
                    o.metrics_dump.c_str());
    }
    return 0;
}

int cmd_sim(const CtlOptions& o) {
    const auto spec = load_bench_topology(o, "sim");
    if (!spec) return 2;
    const Topology topo = spec->topology();
    ctrl::CoordinatorConfig ccfg = coordinator_config(o);
    ccfg.shared_epoch = true;  // one simulated clock
    const ctrl::RunResult r = ctrl::run_in_sim(topo, ccfg, spec->delay_model(),
                                               sim::CpuModel{}, o.seed);
    if (!r.ok) {
        std::fprintf(stderr, "wbamctl sim: FAILED — %s\n", r.error.c_str());
        return 1;
    }
    const std::string out = default_out(o);
    if (!fig_report(o, *spec, "sim", r).write(out)) return 1;
    print_ok("sim", r, topo.num_replicas(), out);
    return 0;
}

int cmd_topology(const CtlOptions& o) {
    if (!o.check_file.empty()) {
        std::string error;
        const auto spec = harness::TopologySpec::load(o.check_file, &error);
        if (!spec) {
            std::fprintf(stderr, "wbamctl topology: INVALID — %s\n",
                         error.c_str());
            return 1;
        }
        std::printf("wbamctl topology: OK — %d groups x %d replicas + %d "
                    "clients across %d regions (%d processes)\n",
                    spec->groups, spec->group_size, spec->clients,
                    spec->regions, spec->num_processes());
        return 0;
    }
    if (o.group_size % 2 == 0) {
        std::fprintf(stderr, "wbamctl topology: --group-size must be odd\n");
        return 2;
    }
    const harness::TopologySpec spec = harness::TopologySpec::make_grouped(
        o.groups, o.group_size, o.gen_clients, o.regions, o.local, o.cross,
        static_cast<std::uint16_t>(o.base_port));
    if (o.out.empty()) {
        std::fputs(spec.format().c_str(), stdout);
        return 0;
    }
    if (!spec.save(o.out)) {
        std::fprintf(stderr, "wbamctl topology: cannot write %s\n",
                     o.out.c_str());
        return 1;
    }
    std::printf("wbamctl topology: wrote %s (%d processes, %d regions)\n",
                o.out.c_str(), spec.num_processes(), spec.regions);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: wbamctl {run|sim|topology} [flags] "
                     "(see header comment / docs/DEPLOYMENT.md)\n");
        return 2;
    }
    CtlOptions o;
    if (!parse_flags(argc, argv, 2, o)) return 2;
    if (o.verbose) log::set_level(log::Level::info);
    const std::string cmd = argv[1];
    if (cmd == "run") return cmd_run(o);
    if (cmd == "sim") return cmd_sim(o);
    if (cmd == "topology") return cmd_topology(o);
    std::fprintf(stderr, "wbamctl: unknown subcommand '%s'\n", cmd.c_str());
    return 2;
}
