// Test/bench harness: builds a simulated cluster running one of the four
// atomic multicast protocols, provides scripted clients, records every
// multicast/delivery into a DeliveryLog, and exposes the correctness
// checker over the run.
#ifndef WBAM_HARNESS_CLUSTER_HPP
#define WBAM_HARNESS_CLUSTER_HPP

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "multicast/api.hpp"
#include "multicast/checker.hpp"
#include "multicast/delivery_log.hpp"
#include "sim/world.hpp"

namespace wbam::harness {

enum class ProtocolKind { skeen, ftskeen, fastcast, wbcast };

const char* to_string(ProtocolKind kind);
// The lower-case CLI spelling ("wbcast", ...). Also the protocol segment
// of the metrics-registry stage keys ("stage/<id>/<stage>") each
// protocol's obs::StageRecorder registers under.
const char* protocol_id(ProtocolKind kind);
// Parses "skeen" / "ftskeen" / "fastcast" / "wbcast" (the CLI spelling of
// the --proto / --protocol knobs).
std::optional<ProtocolKind> parse_protocol_kind(std::string_view s);

// Builds one replica process of the given protocol. Defined in
// protocol_factory.cpp; shared by the cluster harness and the benches.
std::unique_ptr<Process> make_replica(ProtocolKind kind, const Topology& topo,
                                      ProcessId pid, DeliverySink sink,
                                      const ReplicaConfig& cfg);
// make_replica behind the client-ack rule (multicast/client_ack.hpp): the
// replica acks a delivery to the client iff that client asked it, after
// `sink` has run. Every harness replica whose clients wait for acks is
// built this way; ctrl::NodeShim applies the rule itself.
std::unique_ptr<Process> make_acking_replica(ProtocolKind kind,
                                             const Topology& topo,
                                             ProcessId pid, DeliverySink sink,
                                             const ReplicaConfig& cfg);

// A scripted client: the harness enqueues multicasts; the client routes
// them to the current leader guess of each destination group, collects
// delivery acks, and re-broadcasts to whole groups on timeout (leader may
// have moved).
class ScriptedClient final : public Process {
public:
    // Invoked (on the client's execution context) when a multicast is
    // issued; the sim harness records it into its DeliveryLog, the live
    // harness records it up front under its own lock and passes {}.
    using MulticastHook =
        std::function<void(TimePoint at, ProcessId sender, const AppMessage&)>;

    ScriptedClient(const Topology& topo, DeliveryLog* log, Duration retry);
    ScriptedClient(const Topology& topo, MulticastHook hook, Duration retry);

    void on_start(Context& ctx) override;
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override;
    void on_timer(Context& ctx, TimerId id) override;

    // Must be called from inside a simulator event.
    void multicast(const AppMessage& m);
    bool fully_acked(MsgId id) const { return !pending_.count(id); }
    std::size_t pending_count() const { return pending_.size(); }

private:
    struct PendingMulticast {
        AppMessage msg;
        std::unordered_set<GroupId> acked;
        TimePoint last_send = 0;
    };

    Topology topo_;
    MulticastHook note_;
    Duration retry_;
    Context* ctx_ = nullptr;
    TimerId retry_timer_ = invalid_timer;
    std::unordered_map<MsgId, PendingMulticast> pending_;
};

struct ClusterConfig {
    ProtocolKind kind = ProtocolKind::wbcast;
    int groups = 2;
    int group_size = 3;
    int clients = 1;
    bool staggered_leaders = false;  // see Topology
    std::uint64_t seed = 1;
    // Delay model; defaults to UniformDelay(delta).
    Duration delta = milliseconds(1);
    std::function<std::unique_ptr<sim::DelayModel>()> make_delays;
    sim::CpuModel cpu;
    ReplicaConfig replica;
    bool trace_sends = false;
    Duration client_retry = milliseconds(500);
    // Optional application layered over delivery (e.g. the kv store): runs
    // after the log bookkeeping and before the client ack, on the
    // delivering replica.
    DeliverySink extra_sink;
    // Per-replica config override, applied after copying `replica` — the
    // crash-restart tests use it to hand each process its own wal::Log.
    std::function<void(ProcessId, ReplicaConfig&)> tune_replica;
    // Optional decorator around each replica process, at boot and at
    // restart_replica (tests that watch every handler call).
    std::function<std::unique_ptr<Process>(ProcessId, std::unique_ptr<Process>)>
        wrap_replica;
};

class Cluster {
public:
    explicit Cluster(ClusterConfig cfg);

    sim::World& world() { return *world_; }
    DeliveryLog& log() { return log_; }
    const DeliveryLog& log() const { return log_; }
    const Topology& topo() const { return topo_; }
    ScriptedClient& client(int idx);

    // Schedules multicast(m) from client `idx` at absolute time t and
    // returns the message id.
    MsgId multicast_at(TimePoint t, int client_idx, std::vector<GroupId> dests,
                       BufferSlice payload = {});

    void run_for(Duration d) { world_->run_for(d); }
    void run_until(TimePoint t) { world_->run_until(t); }

    // Boots a fresh incarnation of a crashed replica (crash-recovery: the
    // replacement replays its WAL via ReplicaConfig::wal from tune_replica).
    // Replay may legitimately re-emit deliveries above the durable
    // watermark (at-least-once); the restart sink skips each pre-crash
    // recorded message once so the exactly-once checker still applies to
    // everything else. Must be called from outside a simulator event or
    // via world().at(...).
    void restart_replica(ProcessId p);

    // correct[] vector derived from crashes injected into the world.
    std::vector<bool> correct_vector() const;
    // Runs the full specification checker over the recorded run.
    CheckResult check(bool check_termination = true) const;
    CheckResult check_genuine() const;

private:
    ReplicaConfig replica_config_for(ProcessId p) const;
    std::unique_ptr<Process> build_replica(ProcessId p, DeliverySink sink);

    ClusterConfig cfg_;
    Topology topo_;
    DeliveryLog log_;
    std::unique_ptr<sim::World> world_;
    std::vector<ScriptedClient*> clients_;
    std::unordered_map<ProcessId, std::uint32_t> next_seq_;
    DeliverySink sink_;  // the log sink handed to every replica
};

}  // namespace wbam::harness

#endif  // WBAM_HARNESS_CLUSTER_HPP
