// The BENCH_fig7 / BENCH_fig8 JSON schema (docs/BENCHMARKS.md): one
// report per figure run, one series per (protocol, destination-group
// count), one point per client count. Every point is a ctrl::Coordinator
// result, whether the coordinator ran in the simulator (the sweeps in
// bench/bench_load.hpp, `wbamctl sim`) or over TCP (`wbamctl run`), so
// plotting and CI checks are runtime-agnostic.
#ifndef WBAM_HARNESS_FIG_REPORT_HPP
#define WBAM_HARNESS_FIG_REPORT_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wbam::harness {

// One row of the white-box stage breakdown: cumulative latency from
// client submit to the named protocol phase boundary, merged
// bucket-exactly across every replica of the run. segment_ms is the p50
// delta against the previous stage, so the segments telescope to the
// delivered median (docs/OBSERVABILITY.md).
struct FigStage {
    std::string name;  // leader_receipt | ts_agreed | gts_known | delivered | e2e
    std::uint64_t count = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    double segment_ms = 0;
};

struct FigPoint {
    int clients = 0;  // closed-loop sessions driving the cluster
    double throughput_ops_s = 0;
    double mean_ms = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    std::uint64_t ops = 0;  // completions inside the measurement window

    bool operator==(const FigPoint&) const = default;
};

struct FigSeries {
    std::string protocol;
    int dest_groups = 0;
    std::vector<FigPoint> points;
};

struct FigReport {
    std::string bench;    // "fig7" | "fig8"
    std::string name;     // human-readable setup line
    std::string runtime;  // "sim" | "net-distributed"
    int groups = 0;
    int group_size = 0;
    std::uint32_t payload = 20;
    // `wbamctl run` only (0/0 in sim reports): how the load was spread
    // across OS processes and how many raw samples were streamed.
    int driver_processes = 0;
    std::uint64_t samples_streamed = 0;
    // Workload shape. "bytes" is the opaque-payload microbenchmark; "kv"
    // is the partitioned-store scale-out workload, in which case the
    // zipfian/mix parameters below are emitted as a "workload" object.
    std::string workload = "bytes";
    std::uint32_t kv_keys = 0;
    double kv_theta = 0;
    std::uint32_t kv_read_pct = 0;
    std::uint32_t kv_cross_pct = 0;

    std::vector<FigSeries> series;

    // White-box telemetry (distributed runs with stage tracing): the
    // per-stage latency breakdown and the cluster-summed counter totals.
    // Both empty on runs without telemetry — the sections are omitted.
    std::vector<FigStage> stages;
    std::vector<std::pair<std::string, std::uint64_t>> metrics;

    std::string to_json() const;
    // Writes to_json() to `path`; false (with a stderr note) on I/O error.
    bool write(const std::string& path) const;
};

}  // namespace wbam::harness

#endif  // WBAM_HARNESS_FIG_REPORT_HPP
