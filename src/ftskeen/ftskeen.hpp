// Fault-tolerant Skeen's protocol [17] — the naive baseline of §IV: each
// group is a replicated state machine over multi-Paxos that simulates one
// reliable Skeen process. Both key actions (assigning the local timestamp
// and committing the global timestamp / advancing the clock) are separate
// consensus commands, so the collision-free latency is 6δ (MULTICAST +
// consensus + PROPOSE + consensus) and, because the clock passes the
// global timestamp only when the second command applies, the failure-free
// latency is 12δ.
//
// The RSM applies commands deterministically on every member, so followers
// deliver autonomously when the Commit command applies (one δ after the
// leader learns the quorum).
#ifndef WBAM_FTSKEEN_FTSKEEN_HPP
#define WBAM_FTSKEEN_FTSKEEN_HPP

#include <map>
#include <unordered_map>

#include "paxos/rsm_replica.hpp"

namespace wbam::ftskeen {

// Inter-group / intra-group protocol messages (codec::Module::proto).
// gc_status/gc_prune tag the delivered-floor GC exchange of the shared
// scaffold (multicast/replica_core.hpp): entries every member delivered
// shrink to stubs holding only the ordering facts (lts/gts/phase), which
// late retries and recovery still need.
enum class MsgType : std::uint8_t {
    propose_ts = 0,
    gc_status = 1,  // member -> leader: {max_delivered_gts}
    gc_prune = 2,   // leader -> group: {floor}
};

struct ProposeTsMsg {
    AppMessage msg;  // full message: doubles as message recovery
    GroupId from_group = invalid_group;
    Timestamp lts;

    void encode(codec::Writer& w) const {
        codec::write_field(w, msg);
        codec::write_field(w, from_group);
        codec::write_field(w, lts);
    }
    static ProposeTsMsg decode(codec::Reader& r) {
        ProposeTsMsg p;
        codec::read_field(r, p.msg);
        codec::read_field(r, p.from_group);
        codec::read_field(r, p.lts);
        return p;
    }
};

// Replicated commands (serialized into paxos::Command::data).
enum class CmdKind : std::uint8_t { propose = 0, commit = 1 };

struct ProposeCmd {
    AppMessage msg;  // the local timestamp is assigned at apply time

    void encode(codec::Writer& w) const { codec::write_field(w, msg); }
    static ProposeCmd decode(codec::Reader& r) {
        ProposeCmd c;
        codec::read_field(r, c.msg);
        return c;
    }
};

struct CommitCmd {
    MsgId id = invalid_msg;
    Timestamp gts;

    void encode(codec::Writer& w) const {
        codec::write_field(w, id);
        codec::write_field(w, gts);
    }
    static CommitCmd decode(codec::Reader& r) {
        CommitCmd c;
        codec::read_field(r, c.id);
        codec::read_field(r, c.gts);
        return c;
    }
};

// The ordering logic on the shared RSM scaffold (paxos/rsm_replica.hpp).
class FtSkeenReplica final : public paxos::RsmReplica<paxos::NoEntryExt> {
public:
    FtSkeenReplica(const Topology& topo, ProcessId pid, DeliverySink sink,
                   ReplicaConfig cfg = {});

private:
    void apply(Context& ctx, const paxos::Command& cmd) override;
    void handle_multicast(Context& ctx, const AppMessage& m) override;
    void handle_proto(Context& ctx, ProcessId from,
                      codec::EnvelopeView& env) override;
    void lead_tick(Context& ctx) override;
    void clear_leader_state() override;

    void handle_propose_ts(Context& ctx, ProcessId from, const ProposeTsMsg& p);
    void apply_propose(Context& ctx, const ProposeCmd& cmd);
    void apply_commit(Context& ctx, const CommitCmd& cmd);
    void send_propose_ts(Context& ctx, const Entry& e);
    void maybe_submit_commit(Context& ctx, MsgId id);
    void try_deliver(Context& ctx);
    void submit_propose(Context& ctx, const AppMessage& m);

    // --- leader-volatile state ---------------------------------------------
    // Local timestamps collected from destination groups (incl. our own).
    std::unordered_map<MsgId, std::map<GroupId, Timestamp>> collected_;
    struct Submitted {
        AppMessage msg;
        TimePoint at = 0;
    };
    std::unordered_map<MsgId, Submitted> propose_submitted_;
    std::unordered_map<MsgId, TimePoint> commit_submitted_;
    std::unordered_map<MsgId, TimePoint> propose_ts_sent_;
};

}  // namespace wbam::ftskeen

#endif  // WBAM_FTSKEEN_FTSKEEN_HPP
