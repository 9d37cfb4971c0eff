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

#include "elect/elector.hpp"
#include "multicast/api.hpp"
#include "multicast/gc_floor.hpp"
#include "obs/stage.hpp"
#include "paxos/multipaxos.hpp"

namespace wbam::fastcast {

enum class MsgType : std::uint8_t {
    spec_propose = 0,   // leader -> dest leaders: tentative local timestamp
    confirm = 1,        // leader -> dest leaders: durable local timestamp
    deliver_floor = 2,  // leader -> own group: release deliveries up to gts
    gc_status = 3,      // member -> leader: {max_delivered_gts} (app-log GC)
    gc_prune = 4,       // leader -> group: {floor} (app-log GC)
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

// Application-log retention exchange (mirrors wbcast and ftskeen): members
// report delivery progress, the leader announces the group-wide delivered
// floor, and entries at-or-below it drop their payloads (stubs keep the
// ordering facts only). Wire bodies shared across protocols
// (multicast/gc_floor.hpp), tagged with this protocol's type values.
using ::wbam::GcPruneMsg;
using ::wbam::GcStatusMsg;

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

class FastCastReplica final : public Process {
public:
    FastCastReplica(const Topology& topo, ProcessId pid, DeliverySink sink,
                    ReplicaConfig cfg = {});

    void on_start(Context& ctx) override;
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override;
    void on_timer(Context& ctx, TimerId id) override;

    // Handler bodies, wrapped in a BatchingContext when enabled.
    void dispatch_message(Context& ctx, ProcessId from,
                          const BufferSlice& bytes);
    void dispatch_timer(Context& ctx, TimerId id);

    bool is_leader() const { return paxos_.is_leader(); }
    std::uint64_t clock() const { return clock_; }
    Timestamp max_delivered_gts() const { return max_delivered_gts_; }
    // Consensus-log retention introspection for tests and benches.
    const paxos::MultiPaxos& paxos() const { return paxos_; }
    // Application-log retention introspection: total entries (stubs
    // included) and how many were compacted to stubs by the delivered
    // floor.
    std::size_t entry_count() const { return entries_.size(); }
    std::size_t compacted_count() const { return gc_queue_.compacted(); }

    // Deterministic serialization of the replicated state (entries sorted
    // by message id), as shipped by the paxos catch-up path. Entries the
    // receiver has already delivered (delivered here, gts at-or-below
    // `strip_upto`) are OMITTED — the receiver keeps its own record of
    // them — so both the transfer size and the snapshot's entry count stay
    // proportional to the receiver's gap, not the run length. An entry
    // shipped without its payload (possible only when serving below the
    // compaction floor, which can_serve_snapshot refuses) is explicitly
    // flagged, never an invisibly empty payload. The no-arg form strips by
    // this member's own watermark: two quiesced members produce
    // byte-identical snapshots (mid-flight, follower delivered flags lag
    // the leader's by one DELIVER_FLOOR).
    Bytes state_snapshot(Timestamp strip_upto) const;
    Bytes state_snapshot() const { return state_snapshot(max_delivered_gts_); }
    // False when this member holds only payload stubs for entries a
    // requester with watermark `strip_upto` would still have to replay —
    // serving it would deliver empty payloads. Such a member declines to
    // serve and the requester falls back to another peer. Since the
    // delivered floor never passes any member's reported watermark, every
    // real requester can be served; only a hypothetical blank member
    // (below every stub) cannot.
    bool can_serve_snapshot(Timestamp strip_upto) const;

private:
    enum class Phase : std::uint8_t { start, proposed, committed };

    struct Entry {
        AppMessage msg;
        Phase phase = Phase::start;
        Timestamp lts;
        Timestamp gts;
        LtsVector commit_vec;
        // True when the payload was dropped: the entry is a stub holding
        // only the ordering facts. Set by the delivered-floor compaction
        // (every group member delivered the message) or by installing a
        // below-floor snapshot; distinguishable from a legitimately empty
        // payload.
        bool compacted = false;
    };

    // One entry of the state snapshot. `delivered` records whether the
    // snapshotting member had emitted the message; the installer replays
    // exactly those through its own sink (deduplicated by the delivery
    // watermark). `stripped` marks entries shipped without their payload.
    struct StateEntry {
        AppMessage msg;
        std::uint8_t phase = 0;
        Timestamp lts;
        Timestamp gts;
        LtsVector commit_vec;
        bool delivered = false;
        bool stripped = false;

        void encode(codec::Writer& w) const {
            codec::write_field(w, msg);
            codec::write_field(w, phase);
            codec::write_field(w, lts);
            codec::write_field(w, gts);
            codec::write_field(w, commit_vec);
            codec::write_field(w, delivered);
            codec::write_field(w, stripped);
        }
        static StateEntry decode(codec::Reader& r) {
            StateEntry e;
            codec::read_field(r, e.msg);
            codec::read_field(r, e.phase);
            codec::read_field(r, e.lts);
            codec::read_field(r, e.gts);
            codec::read_field(r, e.commit_vec);
            codec::read_field(r, e.delivered);
            codec::read_field(r, e.stripped);
            return e;
        }
    };

    void handle_multicast(Context& ctx, const AppMessage& m);
    void install_state(Context& ctx, const BufferSlice& state);
    void handle_spec_propose(Context& ctx, ProcessId from, const SpecProposeMsg& m);
    void handle_confirm(Context& ctx, ProcessId from, const ConfirmMsg& m);
    void handle_deliver_floor(Context& ctx, const DeliverFloorMsg& m);
    void app_gc_tick(Context& ctx);
    void run_app_gc(Context& ctx);
    void handle_gc_status(ProcessId from, const GcStatusMsg& m);
    void handle_gc_prune(const GcPruneMsg& m);
    std::size_t compact_upto(Timestamp floor);
    void rebuild_gc_queue();
    void start_speculation(Context& ctx, const AppMessage& m);
    void maybe_spec_commit(Context& ctx, MsgId id, const AppMessage& msg);
    void apply(Context& ctx, const paxos::Command& cmd);
    void apply_propose(Context& ctx, const ProposeCmd& cmd);
    void apply_commit(Context& ctx, const CommitCmd& cmd);
    void try_deliver(Context& ctx);
    void deliver_upto(Context& ctx, Timestamp floor);
    void send_spec_propose(Context& ctx, const AppMessage& m, Timestamp lts,
                           bool broadcast);
    void send_confirm(Context& ctx, const Entry& e, bool broadcast);
    // Boot-time WAL restore (two passes: watermark, then paxos records).
    void replay_wal(Context& ctx);

    Topology topo_;
    ProcessId pid_;
    GroupId g0_;
    DeliverySink sink_;
    ReplicaConfig cfg_;
    obs::StageRecorder stages_{"fastcast"};
    paxos::MultiPaxos paxos_;
    elect::Elector elector_;

    // --- replicated state (mutated only in apply) ---------------------------
    std::uint64_t clock_ = 0;
    std::unordered_map<MsgId, Entry> entries_;
    std::map<Timestamp, MsgId> pending_by_lts_;
    std::map<Timestamp, MsgId> committed_by_gts_;

    // --- per-replica delivery cursor ----------------------------------------
    Timestamp max_delivered_gts_;

    // --- application-log retention ------------------------------------------
    DeliveredFloor delivered_floor_;  // leader-side report fold
    CompactionQueue gc_queue_;        // delivered here, payload still held

    // --- leader-volatile speculation state -----------------------------------
    std::uint64_t spec_clock_ = 0;
    std::unordered_map<MsgId, Timestamp> tentative_;
    std::unordered_map<MsgId, std::map<GroupId, Timestamp>> spec_lts_;
    std::unordered_map<MsgId, std::map<GroupId, Timestamp>> confirmed_;
    std::unordered_map<MsgId, TimePoint> commit_submitted_;
    std::unordered_map<MsgId, TimePoint> last_driven_;

    TimerId tick_timer_ = invalid_timer;
    TimerId paxos_gc_timer_ = invalid_timer;
};

}  // namespace wbam::fastcast

#endif  // WBAM_FASTCAST_FASTCAST_HPP
