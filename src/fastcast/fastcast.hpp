// FastCast [Coelho, Schiper, Pedone — DSN'17], the state-of-the-art
// black-box baseline the paper compares against. Like FT-Skeen, each group
// is an RSM over multi-Paxos, but the leader acts speculatively:
//
//  * on MULTICAST it assigns a tentative local timestamp, starts consensus
//    on it AND immediately sends it to the other destination leaders
//    (SPEC_PROPOSE) without waiting for consensus;
//  * on receiving tentative timestamps from all destination groups it
//    computes the speculative global timestamp, advances its speculative
//    clock and immediately starts the second consensus (Commit);
//  * once a group's first consensus finishes, its leader CONFIRMs the now
//    durable local timestamp to all destination leaders;
//  * a leader delivers m once the Commit command has applied, CONFIRMs
//    matching the committed timestamp vector arrived from every group, and
//    Skeen's order condition holds.
//
// In failure-free runs speculation always succeeds, giving a collision-free
// latency of 4δ; the clock passes the global timestamp only when the second
// consensus applies (4δ), so the failure-free latency is 8δ. If a leader
// change makes a tentative timestamp diverge from the durable one, the
// mismatch is detected through CONFIRM and a corrective Commit is issued.
//
// Followers deliver on a DELIVER-floor message from their leader (one extra
// δ, off the critical path), mirroring the paper's measurement model where
// group latency is the first delivery in the group.
#ifndef WBAM_FASTCAST_FASTCAST_HPP
#define WBAM_FASTCAST_FASTCAST_HPP

#include <map>
#include <unordered_map>

#include "paxos/rsm_replica.hpp"

namespace wbam::fastcast {

enum class MsgType : std::uint8_t {
    spec_propose = 0,   // leader -> dest leaders: tentative local timestamp
    confirm = 1,        // leader -> dest leaders: durable local timestamp
    deliver_floor = 2,  // leader -> own group: release deliveries up to gts
    // The delivered-floor GC exchange (multicast/replica_core.hpp).
    gc_status = 3,      // member -> leader: {max_delivered_gts}
    gc_prune = 4,       // leader -> group: {floor}
};

struct SpecProposeMsg {
    AppMessage msg;
    GroupId from_group = invalid_group;
    Timestamp lts;

    void encode(codec::Writer& w) const {
        codec::write_field(w, msg);
        codec::write_field(w, from_group);
        codec::write_field(w, lts);
    }
    static SpecProposeMsg decode(codec::Reader& r) {
        SpecProposeMsg m;
        codec::read_field(r, m.msg);
        codec::read_field(r, m.from_group);
        codec::read_field(r, m.lts);
        return m;
    }
};

struct ConfirmMsg {
    MsgId id = invalid_msg;
    GroupId from_group = invalid_group;
    Timestamp lts;

    void encode(codec::Writer& w) const {
        codec::write_field(w, id);
        codec::write_field(w, from_group);
        codec::write_field(w, lts);
    }
    static ConfirmMsg decode(codec::Reader& r) {
        ConfirmMsg m;
        codec::read_field(r, m.id);
        codec::read_field(r, m.from_group);
        codec::read_field(r, m.lts);
        return m;
    }
};

struct DeliverFloorMsg {
    Timestamp floor;

    void encode(codec::Writer& w) const { codec::write_field(w, floor); }
    static DeliverFloorMsg decode(codec::Reader& r) {
        DeliverFloorMsg m;
        codec::read_field(r, m.floor);
        return m;
    }
};

// Replicated commands.
enum class CmdKind : std::uint8_t { propose = 0, commit = 1 };

using LtsVector = std::vector<std::pair<GroupId, Timestamp>>;  // sorted

struct ProposeCmd {
    AppMessage msg;
    Timestamp lts;  // chosen speculatively by the proposing leader

    void encode(codec::Writer& w) const {
        codec::write_field(w, msg);
        codec::write_field(w, lts);
    }
    static ProposeCmd decode(codec::Reader& r) {
        ProposeCmd c;
        codec::read_field(r, c.msg);
        codec::read_field(r, c.lts);
        return c;
    }
};

struct CommitCmd {
    MsgId id = invalid_msg;
    LtsVector lts_vec;  // gts = max of the vector

    void encode(codec::Writer& w) const {
        codec::write_field(w, id);
        codec::write_field(w, lts_vec);
    }
    static CommitCmd decode(codec::Reader& r) {
        CommitCmd c;
        codec::read_field(r, c.id);
        codec::read_field(r, c.lts_vec);
        return c;
    }
};

// The entry field fastcast adds to the shared RSM entry: the committed
// timestamp vector, checked against the CONFIRMed durable timestamps
// before delivery.
struct CommitVecExt {
    LtsVector commit_vec;

    void encode_ext(codec::Writer& w) const {
        codec::write_field(w, commit_vec);
    }
    void decode_ext(codec::Reader& r) { codec::read_field(r, commit_vec); }
};

// The ordering logic on the shared RSM scaffold (paxos/rsm_replica.hpp).
// Followers deliver on DELIVER_FLOOR, so mid-flight their snapshots'
// delivered flags lag the leader's by one floor; quiesced members still
// produce byte-identical snapshots.
class FastCastReplica final : public paxos::RsmReplica<CommitVecExt> {
public:
    FastCastReplica(const Topology& topo, ProcessId pid, DeliverySink sink,
                    ReplicaConfig cfg = {});

private:
    void apply(Context& ctx, const paxos::Command& cmd) override;
    void handle_multicast(Context& ctx, const AppMessage& m) override;
    void handle_proto(Context& ctx, ProcessId from,
                      codec::EnvelopeView& env) override;
    void lead_tick(Context& ctx) override;
    void clear_leader_state() override;

    void handle_spec_propose(Context& ctx, ProcessId from,
                             const SpecProposeMsg& m);
    void handle_confirm(Context& ctx, ProcessId from, const ConfirmMsg& m);
    void start_speculation(Context& ctx, const AppMessage& m);
    void maybe_spec_commit(Context& ctx, MsgId id, const AppMessage& msg);
    void apply_propose(Context& ctx, const ProposeCmd& cmd);
    void apply_commit(Context& ctx, const CommitCmd& cmd);
    void try_deliver(Context& ctx);
    void deliver_upto(Context& ctx, Timestamp floor);
    void announce_floor(Context& ctx, Timestamp floor);
    void send_spec_propose(Context& ctx, const AppMessage& m, Timestamp lts,
                           bool broadcast);
    void send_confirm(Context& ctx, const Entry& e, bool broadcast);

    // --- leader-volatile speculation state -----------------------------------
    std::uint64_t spec_clock_ = 0;
    std::unordered_map<MsgId, Timestamp> tentative_;
    std::unordered_map<MsgId, std::map<GroupId, Timestamp>> spec_lts_;
    std::unordered_map<MsgId, std::map<GroupId, Timestamp>> confirmed_;
    std::unordered_map<MsgId, TimePoint> commit_submitted_;
    std::unordered_map<MsgId, TimePoint> last_driven_;
};

}  // namespace wbam::fastcast

#endif  // WBAM_FASTCAST_FASTCAST_HPP
