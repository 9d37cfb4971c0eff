// wbamd — the atomic multicast node daemon: one OS process per ProcessId,
// speaking the TCP runtime, always a node of the distributed benchmark
// plane (src/ctrl/). The topology file is its only bootstrap: it names
// every process's endpoint, and the pid's place in it names the role.
// scripts/wbam_deploy.py launches whole loopback, emulated-WAN or
// multi-host deployments (docs/DEPLOYMENT.md).
//
//   wbamd --pid=N --topology=FILE [--epoch-ns=T] [--net-shards=N]
//         [--run-ms=6000] [--wal-dir=DIR]
//         [--wal-sync=off|group|always] [--metrics-dump=FILE]
//         [--metrics-interval-ms=1000] [-v]
//
// The process takes its entire experiment configuration from the
// coordinator's RUN_SPEC: replica pids start bare behind a ctrl::NodeShim,
// client pids become closed-loop ctrl::BenchDriver load generators, and
// the LAST client pid is reserved for the wbamctl coordinator, which
// checks every replica's delivery sequence. The process exits 0 when the
// coordinator orders SHUTDOWN, or 1 at the --run-ms safety deadline.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>

#include "common/log.hpp"
#include "ctrl/bench_plane.hpp"
#include "harness/bootstrap.hpp"
#include "net/world.hpp"
#include "obs/metrics.hpp"
#include "wal/log.hpp"

using namespace wbam;

namespace {

// --metrics-dump sink: one JSON line per --metrics-interval-ms holding the
// registry delta since the previous line, plus full-registry snapshot lines
// on SIGUSR1 and at exit. Each line is wrapped with a "kind" tag so
// consumers can separate the incremental stream from the totals
// (docs/OBSERVABILITY.md).
volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }

class MetricsDumper {
public:
    MetricsDumper(const std::string& path, ProcessId pid) : pid_(pid) {
        f_ = std::fopen(path.c_str(), "w");
        if (f_ == nullptr)
            std::fprintf(stderr, "wbamd: cannot write metrics dump %s\n",
                         path.c_str());
        else
            base_ = obs::metrics().snapshot();
    }
    ~MetricsDumper() {
        if (f_ != nullptr) std::fclose(f_);
    }

    MetricsDumper(const MetricsDumper&) = delete;
    MetricsDumper& operator=(const MetricsDumper&) = delete;

    bool ok() const { return f_ != nullptr; }

    // The per-interval line: activity since the previous line only.
    void delta_line() {
        obs::MetricsSnapshot snap = obs::metrics().snapshot();
        write_line("delta", snap.delta_since(base_));
        base_ = std::move(snap);
    }

    // On-demand (SIGUSR1) and exit lines: everything since process start.
    void snapshot_line(const char* kind) {
        write_line(kind, obs::metrics().snapshot());
    }

private:
    void write_line(const char* kind, const obs::MetricsSnapshot& s) {
        std::fprintf(f_, "{\"kind\": \"%s\", \"pid\": %d, \"metrics\": %s}\n",
                     kind, pid_, s.to_json().c_str());
        std::fflush(f_);
    }

    ProcessId pid_;
    std::FILE* f_ = nullptr;
    obs::MetricsSnapshot base_;
};

}  // namespace

int main(int argc, char** argv) {
    std::string error;
    const auto options = harness::parse_node_args(argc, argv, &error);
    if (!options) {
        std::fprintf(stderr,
                     "wbamd: %s\nusage: wbamd --pid=N --topology=FILE "
                     "(see header comment)\n",
                     error.c_str());
        return 2;
    }
    const harness::NodeOptions& o = *options;
    if (o.verbose) log::set_level(log::Level::info);

    const auto boot = harness::resolve_bootstrap(o, &error);
    if (!boot) {
        std::fprintf(stderr, "wbamd: %s\n", error.c_str());
        return 2;
    }
    const Topology& topo = boot->topo;

    // The WAL outlives the runtime (declared first, destroyed last): the
    // replica's handlers append to it from the loop thread until shutdown.
    std::optional<wal::Log> wal_log;
    if (!o.wal_dir.empty() && topo.is_replica(o.pid)) {
        const std::string path =
            o.wal_dir + "/p" + std::to_string(o.pid) + ".wal";
        wal_log.emplace(path, *wal::parse_sync_mode(o.wal_sync));
        if (!wal_log->ok()) {
            std::fprintf(stderr, "wbamd: cannot open WAL %s\n", path.c_str());
            return 2;
        }
        // Tags 5 and 8 held each delivery before the `delivered` record
        // did; a log with them would replay with no watermark and no
        // delivery sequence, so it is refused rather than misread.
        for (const wal::Record& r : wal_log->recovered()) {
            if (r.type == 5 || r.type == 8) {
                std::fprintf(stderr,
                             "wbamd: WAL %s was written by an older wbamd "
                             "(record tag %u); start from an empty "
                             "--wal-dir\n",
                             path.c_str(), static_cast<unsigned>(r.type));
                return 2;
            }
        }
        std::fprintf(stderr,
                     "wbamd: WAL %s (%s sync): %llu records recovered, %llu "
                     "torn bytes truncated\n",
                     path.c_str(), wal::to_string(wal_log->sync_mode()),
                     static_cast<unsigned long long>(
                         wal_log->stats().records_recovered),
                     static_cast<unsigned long long>(
                         wal_log->stats().truncated_bytes));
        // Fold the WAL's counters into the registry as read-only adapters
        // (snapshot-time reads; the log keeps owning the stats), and record
        // the open-time recovery outcome in the event ring.
        obs::metrics().register_adapter(
            "wal/appends", [&wal_log] { return wal_log->stats().appends; });
        obs::metrics().register_adapter(
            "wal/commits", [&wal_log] { return wal_log->stats().commits; });
        obs::metrics().register_adapter(
            "wal/fsyncs", [&wal_log] { return wal_log->stats().fsyncs; });
        obs::metrics().register_adapter("wal/bytes_written", [&wal_log] {
            return wal_log->stats().bytes_written;
        });
        obs::metrics().register_adapter("wal/records_recovered", [&wal_log] {
            return wal_log->stats().records_recovered;
        });
        obs::metrics().register_adapter("wal/truncated_bytes", [&wal_log] {
            return wal_log->stats().truncated_bytes;
        });
        if (wal_log->stats().records_recovered > 0 ||
            wal_log->stats().truncated_bytes > 0) {
            obs::events().note(
                "wal_recovery",
                path + ": " +
                    std::to_string(wal_log->stats().records_recovered) +
                    " records replayed, " +
                    std::to_string(wal_log->stats().truncated_bytes) +
                    " torn bytes truncated");
        }
    }

    net::NetWorld world(topo, static_cast<std::uint64_t>(o.pid) + 1,
                        harness::node_net_config(boot->map.of(o.pid),
                                                 o.epoch_ns, o.net_shards));
    std::atomic<bool> done{false};
    ctrl::NodeShim* shim = nullptr;
    if (topo.is_replica(o.pid)) {
        auto proc = std::make_unique<ctrl::NodeShim>(
            topo, o.pid, boot->coordinator, &done,
            wal_log ? &*wal_log : nullptr);
        shim = proc.get();
        world.add_process(o.pid, std::move(proc), boot->map.of(o.pid).port);
    } else {
        world.add_process(o.pid,
                          std::make_unique<ctrl::BenchDriver>(
                              topo, boot->coordinator, &done),
                          boot->map.of(o.pid).port);
    }
    world.set_cluster(boot->map);
    world.start();

    // --metrics-dump: periodic delta lines from the slice loop below, a
    // full snapshot whenever SIGUSR1 arrives, and a final one at exit.
    std::optional<MetricsDumper> dumper;
    if (!o.metrics_dump.empty()) {
        dumper.emplace(o.metrics_dump, o.pid);
        if (!dumper->ok()) return 2;
        std::signal(SIGUSR1, on_sigusr1);
    }

    // Every process exits as soon as the coordinator's SHUTDOWN flips its
    // done flag.
    const int slices = o.run_ms / 10;
    const int slices_per_dump = o.metrics_interval_ms / 10;
    for (int s = 0; s < slices; ++s) {
        world.run_for(milliseconds(10));
        if (dumper) {
            if (g_dump_requested != 0) {
                g_dump_requested = 0;
                dumper->snapshot_line("snapshot");
            }
            if ((s + 1) % slices_per_dump == 0) dumper->delta_line();
        }
        if (done.load()) break;
    }
    world.shutdown();
    if (dumper) dumper->snapshot_line("final");

    const bool ok = done.load();
    if (shim != nullptr) {
        std::printf("wbamd replica p%d (group %d): delivered %zu (%s)\n",
                    o.pid, topo.group_of(o.pid), shim->deliveries().size(),
                    ok ? "clean shutdown" : "DEADLINE");
    } else {
        std::printf("wbamd driver p%d: %s\n", o.pid,
                    ok ? "clean shutdown" : "DEADLINE");
    }
    return ok ? 0 : 1;
}
