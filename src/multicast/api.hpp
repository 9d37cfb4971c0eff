// Protocol-independent surface shared by all four atomic multicast
// implementations: the delivery upcall, wire type tags for client traffic,
// and the shared replica configuration.
#ifndef WBAM_MULTICAST_API_HPP
#define WBAM_MULTICAST_API_HPP

#include <functional>

#include "codec/wire.hpp"
#include "common/process.hpp"
#include "common/time.hpp"
#include "common/topology.hpp"
#include "multicast/message.hpp"

namespace wbam::wal {
class Log;
}  // namespace wbam::wal

namespace wbam {

// Called by a replica protocol at the moment it delivers m. The sink may
// send messages through ctx. The replica acks the client itself, after
// the sink (multicast/client_ack.hpp).
using DeliverySink =
    std::function<void(Context& ctx, GroupId group, const AppMessage& m)>;

// Wire types within codec::Module::client.
enum class ClientMsgType : std::uint8_t {
    multicast = 0,    // client -> replicas: body AppMessage
    // replica -> client: body {group}. Sent by a replica the client sent
    // the request to, once it has delivered the op: one per (op, group)
    // in steady state, more on the client's resend path.
    deliver_ack = 1,
};

// Body of a deliver_ack: which group delivered.
struct DeliverAckMsg {
    GroupId group = invalid_group;

    void encode(codec::Writer& w) const { codec::write_field(w, group); }
    static DeliverAckMsg decode(codec::Reader& r) {
        DeliverAckMsg a;
        codec::read_field(r, a.group);
        return a;
    }
};

// MULTICAST(m) as sent by clients, and re-sent by replicas during message
// recovery (retry(m), §IV). Returns a frozen shared buffer: send it to any
// number of recipients without re-encoding or copying.
inline Buffer encode_multicast_request(const AppMessage& m) {
    return codec::encode_envelope(
        codec::Module::client, static_cast<std::uint8_t>(ClientMsgType::multicast),
        m.id, m);
}

inline Buffer encode_deliver_ack(GroupId group, MsgId id) {
    return codec::encode_envelope(
        codec::Module::client,
        static_cast<std::uint8_t>(ClientMsgType::deliver_ack), id,
        DeliverAckMsg{group});
}

// Knobs shared by every replica protocol.
struct ReplicaConfig {
    // Periodic re-send of stuck messages (message recovery, §IV).
    Duration retry_interval = milliseconds(200);
    // Leader election (ignored by protocols without leaders).
    bool election_enabled = true;
    Duration heartbeat_interval = milliseconds(20);
    Duration suspect_timeout = milliseconds(150);
    // Garbage collection, one timer and one report/announce exchange per
    // replica (multicast/replica_core.hpp). Every gc_interval members
    // report their delivery watermark to the leader, which announces the
    // group-wide delivered floor; entries below it compact to stubs. In
    // the black-box rows (ftskeen, fastcast) the same report carries the
    // paxos applied_upto and the same announce the applied floor, below
    // which MultiPaxos prunes its chosen log; a member that fell behind it
    // catches up via state snapshot.
    bool gc_enabled = true;
    Duration gc_interval = milliseconds(250);
    // --- implementation-cost model (benchmarks only; zero in tests) --------
    // Charged at a Paxos leader per consensus command it drives through the
    // engine: the black-box baselines pay it twice per message (once per
    // consensus), which is the overhead the paper's white-box design
    // removes. Calibration is documented in EXPERIMENTS.md.
    Duration consensus_cmd_cost = 0;
    // Charged at a wbcast leader when it first timestamps a message, and at
    // every wbcast process per ACCEPT it processes.
    Duration wbcast_multicast_cost = 0;
    Duration wbcast_accept_cost = 0;

    // Ablation knob (bench_ablation): disable the speculative clock advance
    // of Figure 4 line 14. The clock then passes the global timestamp only
    // on commit/delivery, widening the convoy window from 2δ to 3δ (and, in
    // a real deployment, it would also require an extra round trip to make
    // recovery safe — this is exactly what the white-box trick removes).
    bool wbcast_speculative_clock = true;

    // Durability: per-replica write-ahead log (nullptr = volatile, the
    // default). The log must outlive the replica. When set, every handler
    // runs under a wal::HoldContext that holds its sends until the log has
    // committed (one fsync per handler in SyncMode::group_commit): records
    // are durable BEFORE the handler's sends leave the process, so no
    // acknowledged delivery can be lost to a crash. On construction the
    // replica replays the log and rejoins via floor/catch-up
    // (docs/ARCHITECTURE.md, "Durability & recovery").
    wal::Log* wal = nullptr;
};

}  // namespace wbam

#endif  // WBAM_MULTICAST_API_HPP
