#include "harness/cluster.hpp"

#include "common/assert.hpp"
#include "sim/network.hpp"

namespace wbam::harness {

const char* to_string(ProtocolKind kind) {
    switch (kind) {
        case ProtocolKind::skeen: return "Skeen";
        case ProtocolKind::ftskeen: return "FT-Skeen";
        case ProtocolKind::fastcast: return "FastCast";
        case ProtocolKind::wbcast: return "WbCast";
    }
    return "?";
}

const char* protocol_id(ProtocolKind kind) {
    switch (kind) {
        case ProtocolKind::skeen: return "skeen";
        case ProtocolKind::ftskeen: return "ftskeen";
        case ProtocolKind::fastcast: return "fastcast";
        case ProtocolKind::wbcast: return "wbcast";
    }
    return "?";
}

std::optional<ProtocolKind> parse_protocol_kind(std::string_view s) {
    if (s == "skeen") return ProtocolKind::skeen;
    if (s == "ftskeen") return ProtocolKind::ftskeen;
    if (s == "fastcast") return ProtocolKind::fastcast;
    if (s == "wbcast") return ProtocolKind::wbcast;
    return std::nullopt;
}

// --- ScriptedClient ---------------------------------------------------------

ScriptedClient::ScriptedClient(const Topology& topo, DeliveryLog* log,
                               Duration retry)
    : ScriptedClient(topo,
                     [log](TimePoint at, ProcessId sender,
                           const AppMessage& m) {
                         log->note_multicast(at, sender, m);
                     },
                     retry) {}

ScriptedClient::ScriptedClient(const Topology& topo, MulticastHook hook,
                               Duration retry)
    : topo_(topo), note_(std::move(hook)), retry_(retry) {}

void ScriptedClient::on_start(Context& ctx) {
    ctx_ = &ctx;
    retry_timer_ = ctx.set_timer(retry_);
}

void ScriptedClient::multicast(const AppMessage& m) {
    WBAM_ASSERT_MSG(ctx_ != nullptr, "multicast before start");
    // Normalize the destination set HERE, at the boundary where a message
    // enters the protocol. A same-group transfer naturally produces
    // duplicate destinations ({shard_of(from), shard_of(to)} landing on
    // one group); unnormalized, the wire encoding is rejected by every
    // replica's AppMessage::decode (dests must be sorted/unique), nothing
    // ever delivers, and the completion check below — acked GROUPS vs
    // dests entries — could never balance anyway: the client would retry
    // forever.
    AppMessage normalized = make_app_message(m.id, m.dests, m.payload);
    WBAM_ASSERT_MSG(!normalized.dests.empty(), "multicast with no dests");
    // Stamp the submit time at the same boundary (callers that already
    // stamped one keep theirs): stage watermarks measure from here.
    normalized.submit_ts =
        m.submit_ts > 0 ? m.submit_ts : ctx_->now();
    if (note_) note_(ctx_->now(), ctx_->self(), normalized);
    auto& pending = pending_[normalized.id];
    pending.last_send = ctx_->now();
    // First attempt goes to the initial-leader guess of each group.
    const Buffer wire = encode_multicast_request(normalized);
    for (const GroupId g : normalized.dests)
        ctx_->send(topo_.initial_leader(g), wire);
    pending.msg = std::move(normalized);
}

void ScriptedClient::on_message(Context&, ProcessId, const BufferSlice& bytes) {
    const codec::EnvelopeView env(bytes);
    if (env.module != codec::Module::client ||
        env.type != static_cast<std::uint8_t>(ClientMsgType::deliver_ack))
        return;
    const auto it = pending_.find(env.about);
    if (it == pending_.end()) return;
    codec::Reader body = env.body;
    it->second.acked.insert(DeliverAckMsg::decode(body).group);
    if (it->second.acked.size() == it->second.msg.dests.size())
        pending_.erase(it);
}

void ScriptedClient::on_timer(Context& ctx, TimerId id) {
    if (id != retry_timer_) return;
    retry_timer_ = ctx.set_timer(retry_);
    for (auto& [mid, pending] : pending_) {
        if (ctx.now() - pending.last_send < retry_) continue;
        pending.last_send = ctx.now();
        // The leader guess may be stale (leader changed or message lost):
        // fall back to broadcasting to every member of unacked groups.
        const Buffer wire = encode_multicast_request(pending.msg);
        for (const GroupId g : pending.msg.dests) {
            if (pending.acked.count(g)) continue;
            for (const ProcessId p : topo_.members(g)) ctx.send(p, wire);
        }
    }
}

// --- Cluster ---------------------------------------------------------------

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)),
      topo_(cfg_.groups, cfg_.group_size, cfg_.clients,
            cfg_.staggered_leaders) {
    auto delays = cfg_.make_delays
                      ? cfg_.make_delays()
                      : std::make_unique<sim::UniformDelay>(cfg_.delta);
    world_ = std::make_unique<sim::World>(topo_, std::move(delays), cfg_.seed,
                                          cfg_.cpu);
    if (cfg_.trace_sends) world_->enable_send_trace(true);

    DeliveryLog* log = &log_;
    DeliverySink extra = cfg_.extra_sink;
    sink_ = [log, extra](Context& ctx, GroupId group, const AppMessage& m) {
        log->note_delivery(ctx.now(), ctx.self(), group, m);
        if (extra) extra(ctx, group, m);
    };

    for (ProcessId p = 0; p < topo_.num_replicas(); ++p)
        world_->add_process(p, build_replica(p, sink_));
    for (int c = 0; c < topo_.num_clients(); ++c) {
        auto client = std::make_unique<ScriptedClient>(topo_, &log_,
                                                       cfg_.client_retry);
        clients_.push_back(client.get());
        world_->add_process(topo_.client(c), std::move(client));
    }
    world_->start();
}

ReplicaConfig Cluster::replica_config_for(ProcessId p) const {
    ReplicaConfig rc = cfg_.replica;
    if (cfg_.tune_replica) cfg_.tune_replica(p, rc);
    return rc;
}

std::unique_ptr<Process> Cluster::build_replica(ProcessId p,
                                                DeliverySink sink) {
    auto replica = make_replica(cfg_.kind, topo_, p, std::move(sink),
                                replica_config_for(p));
    if (cfg_.wrap_replica) return cfg_.wrap_replica(p, std::move(replica));
    return replica;
}

void Cluster::restart_replica(ProcessId p) {
    // Replay suppresses deliveries at-or-below the durable watermark but
    // re-emits anything above it (at-least-once). Skip each message the
    // pre-crash incarnation already recorded exactly once: a replayed
    // duplicate passes silently, a genuine protocol double-delivery still
    // reaches the log and fails the integrity check.
    auto seen = std::make_shared<std::unordered_set<MsgId>>();
    const auto it = log_.deliveries().find(p);
    if (it != log_.deliveries().end())
        for (const DeliveryEvent& ev : it->second) seen->insert(ev.msg);
    DeliverySink base = sink_;
    DeliverySink sink = [seen, base](Context& ctx, GroupId group,
                                     const AppMessage& m) {
        if (seen->erase(m.id)) return;
        base(ctx, group, m);
    };
    world_->restart(p, build_replica(p, std::move(sink)));
}

ScriptedClient& Cluster::client(int idx) {
    WBAM_ASSERT(idx >= 0 && static_cast<std::size_t>(idx) < clients_.size());
    return *clients_[static_cast<std::size_t>(idx)];
}

MsgId Cluster::multicast_at(TimePoint t, int client_idx,
                            std::vector<GroupId> dests, BufferSlice payload) {
    WBAM_ASSERT_MSG(!dests.empty(), "multicast with no dests");
    const ProcessId pid = topo_.client(client_idx);
    const MsgId id = make_msg_id(pid, next_seq_[pid]++);
    AppMessage m = make_app_message(id, std::move(dests), std::move(payload));
    ScriptedClient* client = clients_[static_cast<std::size_t>(client_idx)];
    world_->at(t, [client, m = std::move(m)] { client->multicast(m); });
    return id;
}

std::vector<bool> Cluster::correct_vector() const {
    std::vector<bool> correct(static_cast<std::size_t>(topo_.num_processes()),
                              true);
    for (ProcessId p = 0; p < topo_.num_processes(); ++p)
        if (world_->is_crashed(p)) correct[static_cast<std::size_t>(p)] = false;
    return correct;
}

CheckResult Cluster::check(bool check_termination) const {
    CheckOptions opts;
    opts.correct = correct_vector();
    opts.check_termination = check_termination;
    return check_multicast_properties(log_, topo_, opts);
}

CheckResult Cluster::check_genuine() const {
    WBAM_ASSERT_MSG(cfg_.trace_sends, "enable trace_sends to check genuineness");
    return check_genuineness(world_->send_trace(), log_, topo_);
}

}  // namespace wbam::harness
