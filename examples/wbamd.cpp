// wbamd — the atomic multicast node daemon: one OS process per ProcessId,
// speaking the TCP runtime. A cluster is a set of wbamd processes sharing
// one topology and address map; scripts/run_loopback_cluster.sh spins up
// the paper's 2-group x 3-replica shape (plus one client) over loopback
// and validates that every replica delivered the identical sequence, and
// scripts/wbam_deploy.py launches whole emulated-WAN or multi-host
// deployments (docs/DEPLOYMENT.md).
//
//   wbamd --pid=N [--proto=wbcast] [--groups=2] [--group-size=3]
//         [--clients=1] (--base-port=P | --peers=host:port,... |
//         --topology=FILE) [--bench] [--epoch-ns=T] [--net-shards=N]
//         [--run-ms=6000] [--msgs=25] [--payload=32] [--out=FILE]
//         [--metrics-dump=FILE] [--metrics-interval-ms=1000] [-v]
//
// Self-driving mode (default): replica pids run the selected protocol
// and, at exit, write their delivery sequence (one message id per line)
// to --out. Client pids drive a closed-ish workload addressed to every
// group, retrying unacked messages, and exit 0 only when every multicast
// was acknowledged by all destination groups.
//
// Bench mode (--bench): the process joins the distributed benchmark
// plane (src/ctrl/) and takes its entire experiment configuration from
// the coordinator's RUN_SPEC (--proto/--msgs are ignored): replica pids
// start bare behind a ctrl::NodeShim, client pids become closed-loop
// ctrl::BenchDriver load generators, and the LAST client pid is reserved
// for the wbamctl coordinator. The process exits when the coordinator
// orders SHUTDOWN (or at the --run-ms safety deadline, with exit 1).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/log.hpp"
#include "ctrl/bench_plane.hpp"
#include "harness/bootstrap.hpp"
#include "net/world.hpp"
#include "obs/metrics.hpp"
#include "wal/log.hpp"

using namespace wbam;

namespace {

// Client process of the self-driving mode: multicasts `msgs` messages to
// every group (paced by a short timer), retries unacked ones, and flips
// `done` when everything was acknowledged by all destination groups.
class WorkloadClient final : public Process {
public:
    WorkloadClient(Topology topo, int msgs, int payload,
                   std::atomic<bool>* done)
        : topo_(std::move(topo)), msgs_(msgs),
          payload_(static_cast<std::size_t>(payload)), done_(done) {}

    void on_start(Context& ctx) override {
        timer_ = ctx.set_timer(milliseconds(5));
    }

    void on_message(Context&, ProcessId, const BufferSlice& bytes) override {
        const codec::EnvelopeView env(bytes);
        if (env.module != codec::Module::client ||
            env.type != static_cast<std::uint8_t>(ClientMsgType::deliver_ack))
            return;
        const auto it = pending_.find(env.about);
        if (it == pending_.end()) return;
        codec::Reader body = env.body;
        it->second.acked.insert(DeliverAckMsg::decode(body).group);
        if (it->second.acked.size() == it->second.msg.dests.size()) {
            pending_.erase(it);
            ++completed_;
            if (completed_ == msgs_) done_->store(true);
        }
    }

    void on_timer(Context& ctx, TimerId id) override {
        if (id != timer_) return;
        timer_ = ctx.set_timer(milliseconds(5));
        if (issued_ < msgs_) {
            const MsgId mid = make_msg_id(
                ctx.self(), static_cast<std::uint32_t>(issued_++));
            AppMessage m = make_app_message(mid, topo_.all_groups(),
                                            Bytes(payload_, 0x77));
            m.submit_ts = ctx.now();
            auto& p = pending_[mid];
            p.msg = m;
            p.sent_at = ctx.now();
            const Buffer wire = encode_multicast_request(m);
            for (const GroupId g : m.dests)
                ctx.send(topo_.initial_leader(g), wire);
            return;
        }
        // Retry stragglers: the leader guess may be stale or a message may
        // have been lost across a reconnect.
        for (auto& [mid, p] : pending_) {
            if (ctx.now() - p.sent_at < milliseconds(300)) continue;
            p.sent_at = ctx.now();
            const Buffer wire = encode_multicast_request(p.msg);
            for (const GroupId g : p.msg.dests) {
                if (p.acked.count(g)) continue;
                for (const ProcessId r : topo_.members(g)) ctx.send(r, wire);
            }
        }
    }

    int completed() const { return completed_; }

private:
    struct PendingOp {
        AppMessage msg;
        std::unordered_set<GroupId> acked;
        TimePoint sent_at = 0;
    };

    Topology topo_;
    int msgs_;
    std::size_t payload_;
    std::atomic<bool>* done_;
    TimerId timer_ = invalid_timer;
    int issued_ = 0;
    int completed_ = 0;
    std::unordered_map<MsgId, PendingOp> pending_;
};

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

int write_sequence(const std::string& path, const std::vector<MsgId>& ids) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "wbamd: cannot write %s\n", path.c_str());
        return 1;
    }
    for (const MsgId id : ids)
        std::fprintf(f, "%016llx\n", static_cast<unsigned long long>(id));
    std::fclose(f);
    return 0;
}

net::NetConfig net_config_for(const harness::NodeOptions& o,
                              const net::Endpoint& self) {
    net::NetConfig cfg;
    // Loopback deployments keep the 127.0.0.1 default; anything else
    // (netns mesh addresses, real NICs, hostnames) binds the wildcard so
    // the listener is reachable on whatever address peers dial.
    if (self.host != "127.0.0.1") cfg.bind_host = "0.0.0.0";
    if (o.epoch_ns > 0)
        cfg.epoch = std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::nanoseconds(o.epoch_ns)));
    cfg.shards = o.net_shards;
    return cfg;
}

}  // namespace

int main(int argc, char** argv) {
    std::string error;
    const auto options = harness::parse_node_args(argc, argv, &error);
    if (!options) {
        std::fprintf(stderr,
                     "wbamd: %s\nusage: wbamd --pid=N (--base-port=P | "
                     "--peers=... | --topology=FILE) [--bench] (see header "
                     "comment)\n",
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
                        net_config_for(o, boot->map.of(o.pid)));

    // Self-driving replica state (the sink runs on the loop thread).
    std::mutex deliveries_mutex;
    std::vector<MsgId> deliveries;
    std::atomic<bool> done{false};
    ctrl::NodeShim* shim = nullptr;

    const ProcessId coordinator_pid =
        topo.num_clients() > 0 ? topo.client(topo.num_clients() - 1)
                               : invalid_process;
    if (o.bench) {
        if (topo.num_clients() < 2) {
            std::fprintf(stderr,
                         "wbamd: --bench needs >= 2 client pids (drivers + "
                         "the wbamctl coordinator)\n");
            return 2;
        }
        if (o.pid == coordinator_pid) {
            std::fprintf(stderr,
                         "wbamd: pid %d is the coordinator seat — run "
                         "'wbamctl run' there instead\n",
                         o.pid);
            return 2;
        }
        if (topo.is_replica(o.pid)) {
            auto proc = std::make_unique<ctrl::NodeShim>(
                topo, o.pid, coordinator_pid, &done,
                wal_log ? &*wal_log : nullptr);
            shim = proc.get();
            world.add_process(o.pid, std::move(proc), boot->map.of(o.pid).port);
        } else {
            world.add_process(o.pid,
                              std::make_unique<ctrl::BenchDriver>(
                                  topo, coordinator_pid, &done),
                              boot->map.of(o.pid).port);
        }
    } else if (topo.is_replica(o.pid)) {
        DeliverySink sink = [&](Context&, GroupId, const AppMessage& m) {
            const std::lock_guard<std::mutex> guard(deliveries_mutex);
            deliveries.push_back(m.id);
        };
        ReplicaConfig replica;
        replica.heartbeat_interval = milliseconds(50);
        replica.suspect_timeout = seconds(30);  // loopback: no failures
        replica.retry_interval = milliseconds(200);
        if (wal_log) replica.wal = &*wal_log;
        world.add_process(o.pid,
                          harness::make_acking_replica(o.proto, topo, o.pid,
                                                       sink, replica),
                          boot->map.of(o.pid).port);
    } else {
        world.add_process(o.pid,
                          std::make_unique<WorkloadClient>(topo, o.msgs,
                                                           o.payload, &done),
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

    // Replicas serve for the full --run-ms; clients (and every bench-mode
    // process) exit as soon as their done flag flips.
    const bool exits_on_done = o.bench || topo.is_client(o.pid);
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
        if (exits_on_done && done.load()) break;
    }
    world.shutdown();
    if (dumper) dumper->snapshot_line("final");

    if (o.bench) {
        const bool ok = done.load();
        if (shim != nullptr) {
            // The validated snapshot, not the live sequence: tail traffic
            // still settling at the deadline would race the group's files
            // apart (see NodeShim::reported_deliveries).
            const std::vector<MsgId> seq = shim->reported_deliveries();
            std::printf("wbamd bench replica p%d (group %d): delivered %zu "
                        "(%s)\n",
                        o.pid, topo.group_of(o.pid), seq.size(),
                        ok ? "clean shutdown" : "DEADLINE");
            if (!o.out.empty() && write_sequence(o.out, seq) != 0) return 1;
        } else {
            std::printf("wbamd bench driver p%d: %s\n", o.pid,
                        ok ? "clean shutdown" : "DEADLINE");
        }
        return ok ? 0 : 1;
    }

    if (topo.is_client(o.pid)) {
        const bool ok = done.load();
        std::printf("wbamd client p%d: %s (%d multicasts to %d groups)\n",
                    o.pid, ok ? "completed" : "INCOMPLETE", o.msgs,
                    topo.num_groups());
        return ok ? 0 : 1;
    }

    const std::lock_guard<std::mutex> guard(deliveries_mutex);
    std::printf("wbamd replica p%d (%s, group %d): delivered %zu\n", o.pid,
                harness::to_string(o.proto), topo.group_of(o.pid),
                deliveries.size());
    if (!o.out.empty()) return write_sequence(o.out, deliveries);
    return 0;
}
