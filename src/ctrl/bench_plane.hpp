// The benchmark plane: the processes that turn a cluster into a
// measurement instrument producing the BENCH_fig7/fig8 JSON. The same
// roles run as wbamd/wbamctl OS processes over TCP (loopback,
// netns-emulated WAN, or real hosts) and inside one sim::World
// (ctrl/sim_run.hpp), so there is one measurement harness.
//
// Three roles, all ordinary Process implementations (so on TCP the
// control plane inherits the transport's reliable-FIFO channels and
// reconnect behaviour for free):
//
//   * NodeShim    — wraps a replica. Starts bare; instantiates the actual
//                   protocol stack only when the coordinator's RUN_SPEC
//                   arrives (the deployment driver never bakes protocol
//                   knobs into argv). Records its delivery sequence as an
//                   order-sensitive digest for the coordinator's
//                   agreement check; after a restart it rebuilds it from
//                   the replica's own `delivered` WAL records, and writes
//                   no record of its own. The replica inside acks a
//                   delivery to the driver iff that driver sent it the
//                   request (multicast/client_ack.hpp, applied by
//                   ReplicaCore): in steady state only the group's
//                   initial leader, which the driver addresses, acks;
//                   every member that has delivered re-acks when the
//                   driver's resend reaches it.
//   * BenchDriver — hosts `sessions` closed-loop client sessions and a
//                   LatencySampler; an op completes when every destination
//                   group has acked it. Streams drained raw samples
//                   to the coordinator (SAMPLE) during the measurement
//                   window and reports final counters (DRIVER_DONE).
//                   Keeps applying load after its window closes so other
//                   drivers measure under full contention; stops issuing
//                   at STOP_LOAD.
//   * Coordinator — distributes the BenchSpec, opens the measurement
//                   window (absolute timepoints when the deployment
//                   shares a clock epoch), merges streamed samples into
//                   one histogram (exact merged percentiles), validates
//                   that every replica group agrees on a non-empty
//                   delivery sequence (and, when every op goes to every
//                   group, that all groups agree on one), and exposes the
//                   merged FigReport point.
//
// The message exchange is documented in ctrl/messages.hpp; the file
// format and deployment modes in docs/DEPLOYMENT.md.
#ifndef WBAM_CTRL_BENCH_PLANE_HPP
#define WBAM_CTRL_BENCH_PLANE_HPP

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "client/latency_sampler.hpp"
#include "ctrl/messages.hpp"
#include "harness/fig_report.hpp"
#include "kvstore/shard.hpp"
#include "kvstore/workload.hpp"
#include "wal/log.hpp"

namespace wbam::ctrl {

// --- replica side ------------------------------------------------------------

class NodeShim final : public Process {
public:
    // `shutdown_flag` is set (from the loop thread) when the coordinator
    // orders SHUTDOWN; the hosting main loop polls it to exit. `wal`, when
    // given, is the inner replica's log. The shim writes nothing to it: on
    // restart it rebuilds its delivery sequence + digest from the
    // replica's `delivered` records (multicast/replica_core.hpp), so a
    // kill -9'd node reports the FULL run in its REPLICA_DONE digest, not
    // just the post-restart suffix. The replica's watermark comes from
    // the same records, so its replay re-emits only deliveries the
    // rebuilt sequence lacks. Re-acking a resent request for an op
    // delivered pre-crash is the inner replica's own business: it re-marks
    // its delivered past while replaying the same WAL.
    NodeShim(Topology topo, ProcessId self, ProcessId coordinator,
             std::atomic<bool>* shutdown_flag, wal::Log* wal = nullptr);

    void on_start(Context& ctx) override;
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override;
    void on_timer(Context& ctx, TimerId id) override;

    // Snapshot of the recorded delivery sequence (thread-safe).
    std::vector<MsgId> deliveries() const;

private:
    void handle_ctrl(Context& ctx, const codec::EnvelopeView& env);

    Topology topo_;
    ProcessId self_;
    ProcessId coordinator_;
    std::atomic<bool>* shutdown_flag_;
    wal::Log* wal_;

    std::unique_ptr<Process> inner_;
    // Protocol traffic that raced ahead of our RUN_SPEC (a peer that
    // received its spec first may already be heartbeating, a driver
    // already sending requests): handed to the inner process the moment
    // it exists.
    std::vector<std::pair<ProcessId, BufferSlice>> early_mail_;

    mutable std::mutex deliveries_mutex_;
    std::vector<MsgId> deliveries_;
    std::uint64_t digest_ = 0;
    // KV workload only (spec.workload == kv): this replica's shard of the
    // partitioned store. Built at RUN_SPEC (the group/shard mapping needs
    // the spec's word that payloads are KvOps); guarded by
    // deliveries_mutex_ like the delivery record it rides along with.
    std::unique_ptr<kv::ShardState> kv_state_;
};

// --- driver side -------------------------------------------------------------

class BenchDriver final : public Process {
public:
    BenchDriver(Topology topo, ProcessId coordinator,
                std::atomic<bool>* shutdown_flag);

    void on_start(Context& ctx) override;
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override;
    void on_timer(Context& ctx, TimerId id) override;

    const client::LatencySampler& sampler() const { return sampler_; }

private:
    struct PendingOp {
        AppMessage msg;
        std::unordered_set<GroupId> acked;
        TimePoint last_send = 0;
    };

    void handle_ctrl(Context& ctx, const codec::EnvelopeView& env);
    void begin(Context& ctx, const StartMsg& start);
    void issue(Context& ctx);
    void flush_samples(Context& ctx);

    Topology topo_;
    ProcessId coordinator_;
    std::atomic<bool>* shutdown_flag_;

    BenchSpec spec_;
    bool have_spec_ = false;
    bool started_ = false;
    bool stopped_ = false;     // SHUTDOWN: nothing more at all
    bool load_stopped_ = false;  // STOP_LOAD: no new ops, retries go on
    bool done_sent_ = false;
    TimePoint window_open_ = 0;
    TimePoint window_close_ = 0;

    client::LatencySampler sampler_;
    // Destination choice is drawn from the spec's seed (not the world
    // RNG), so wbamctl --seed reproduces the same workload shape across
    // runs and deployments.
    Rng workload_rng_{1};
    // KV workload only: the zipfian op generator. Destinations come from
    // key placement (shard_of) instead of the uniform dest_groups draw.
    std::unique_ptr<kv::KvWorkload> kv_workload_;
    std::uint32_t seq_ = 0;
    std::unordered_map<MsgId, PendingOp> pending_;
    TimerId sample_timer_ = invalid_timer;
    TimerId retry_timer_ = invalid_timer;
};

// --- coordinator side --------------------------------------------------------

struct CoordinatorConfig {
    BenchSpec spec;
    // Deployment shares one clock epoch (NetConfig::epoch / --epoch-ns):
    // START carries absolute window timepoints, so every driver measures
    // the SAME wall-clock window.
    bool shared_epoch = false;
    // Settle time between the last DRIVER_DONE and the first REPORT (lets
    // in-flight deliveries land so replica digests converge).
    Duration quiesce = milliseconds(750);
    // Replica digest collection: groups still converging are re-polled.
    Duration report_retry = milliseconds(400);
    int report_attempts = 25;
    // Overall run deadline, measured from on_start.
    Duration deadline = seconds(180);
};

// One group's delivery record as every replica of it reported it.
struct GroupRecord {
    std::uint64_t delivered = 0;
    std::uint64_t digest = 0;
    std::uint64_t app_hash = 0;  // kv workload only; 0 for bytes

    bool operator==(const GroupRecord&) const = default;
};

// A finished run, copied out of its coordinator.
struct RunResult {
    bool ok = false;
    std::string error;
    harness::FigPoint point;
    int drivers = 0;
    std::uint64_t samples_streamed = 0;
    std::vector<GroupRecord> groups;  // per group id; empty unless ok
};

class Coordinator final : public Process {
public:
    Coordinator(Topology topo, CoordinatorConfig cfg);

    void on_start(Context& ctx) override;
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override;
    void on_timer(Context& ctx, TimerId id) override;

    // Cross-thread progress flag for the hosting main loop.
    bool finished() const { return finished_.load(); }

    // The accessors below are valid only after the world has shut down
    // (the loop thread is joined; no concurrent mutation remains).
    bool succeeded() const { return ok_; }
    const std::string& error() const { return error_; }
    harness::FigPoint result_point() const;
    RunResult result() const;
    const stats::Histogram& merged_latency() const { return merged_; }
    // Cluster-wide metrics, folded from the final REPLICA_DONE snapshots
    // at finish: counters summed, histograms (the stage/<proto>/<stage>
    // rows in particular) bucket-merged — percentiles over the merge are
    // exact, not approximated from per-replica quantiles. Under the
    // simulator every replica reports the one process-global registry,
    // so these sums count it once per replica; sim reports omit them.
    const std::map<std::string, std::uint64_t>& merged_counters() const {
        return merged_counters_;
    }
    const std::map<std::string, stats::Histogram>& merged_histograms() const {
        return merged_histograms_;
    }

private:
    enum class Phase {
        wait_ready,
        wait_spec_ok,
        measuring,
        quiescing,
        reporting,
        done,
    };

    void broadcast(Context& ctx, const Buffer& wire);
    void handle_ctrl(Context& ctx, ProcessId from, const BufferSlice& bytes);
    void send_report(Context& ctx);
    void finish(Context& ctx);
    void fail(Context& ctx, const std::string& why);
    bool validate_groups(std::string* why) const;

    Topology topo_;
    CoordinatorConfig cfg_;
    ProcessId self_ = invalid_process;
    int participants_ = 0;
    int drivers_ = 0;

    Phase phase_ = Phase::wait_ready;
    std::set<ProcessId> ready_;
    std::set<ProcessId> spec_ok_;
    std::map<ProcessId, DriverDoneMsg> driver_done_;
    std::map<ProcessId, ReplicaDoneMsg> replica_done_;
    int report_attempts_made_ = 0;
    TimePoint started_at_ = 0;
    TimePoint window_open_ = 0;
    TimePoint window_close_ = 0;
    TimePoint quiesce_until_ = 0;
    TimePoint next_report_at_ = 0;
    TimerId tick_timer_ = invalid_timer;

    stats::Histogram merged_;
    std::uint64_t samples_streamed_ = 0;
    std::map<std::string, std::uint64_t> merged_counters_;
    std::map<std::string, stats::Histogram> merged_histograms_;

    std::atomic<bool> finished_{false};
    bool ok_ = false;
    std::string error_;
};

}  // namespace wbam::ctrl

#endif  // WBAM_CTRL_BENCH_PLANE_HPP
