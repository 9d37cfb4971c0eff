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

#include "elect/elector.hpp"
#include "multicast/api.hpp"
#include "multicast/gc_floor.hpp"
#include "obs/stage.hpp"
#include "paxos/multipaxos.hpp"

namespace wbam::ftskeen {

// Inter-group / intra-group protocol messages (codec::Module::proto).
// gc_status/gc_prune are the application-log retention exchange, mirroring
// wbcast: members report delivery progress to the group leader, the leader
// computes the group-wide delivered floor and announces it, and every
// member drops the payloads of entries at-or-below the floor — the entry
// shrinks to a wbcast-style stub holding only the ordering facts
// (lts/gts/phase), which late retries and recovery still need.
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

// Wire bodies of the GC exchange: shared across protocols
// (multicast/gc_floor.hpp), tagged with this protocol's type values.
using ::wbam::GcPruneMsg;
using ::wbam::GcStatusMsg;

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

class FtSkeenReplica final : public Process {
public:
    FtSkeenReplica(const Topology& topo, ProcessId pid, DeliverySink sink,
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
    std::size_t undelivered_count() const {
        return pending_by_lts_.size() + committed_by_gts_.size();
    }
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
    // byte-identical snapshots.
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
        // True when the payload was dropped: the entry is a stub holding
        // only the ordering facts. Set by the delivered-floor compaction
        // (every group member delivered the message) or by installing a
        // below-floor snapshot; distinguishable from a legitimately empty
        // payload.
        bool compacted = false;
    };

    // One entry of the state snapshot. `delivered` records whether the
    // deterministic try_deliver had already emitted the message at the
    // snapshotting member; the installer replays exactly those through its
    // own sink (deduplicated by the delivery watermark). `stripped` marks
    // entries shipped without their payload (see state_snapshot).
    struct StateEntry {
        AppMessage msg;
        std::uint8_t phase = 0;
        Timestamp lts;
        Timestamp gts;
        bool delivered = false;
        bool stripped = false;

        void encode(codec::Writer& w) const {
            codec::write_field(w, msg);
            codec::write_field(w, phase);
            codec::write_field(w, lts);
            codec::write_field(w, gts);
            codec::write_field(w, delivered);
            codec::write_field(w, stripped);
        }
        static StateEntry decode(codec::Reader& r) {
            StateEntry e;
            codec::read_field(r, e.msg);
            codec::read_field(r, e.phase);
            codec::read_field(r, e.lts);
            codec::read_field(r, e.gts);
            codec::read_field(r, e.delivered);
            codec::read_field(r, e.stripped);
            return e;
        }
    };

    void handle_multicast(Context& ctx, const AppMessage& m);
    void handle_propose_ts(Context& ctx, ProcessId from, const ProposeTsMsg& p);
    void app_gc_tick(Context& ctx);
    void run_app_gc(Context& ctx);
    void handle_gc_status(ProcessId from, const GcStatusMsg& m);
    void handle_gc_prune(const GcPruneMsg& m);
    std::size_t compact_upto(Timestamp floor);
    void rebuild_gc_queue();
    void install_state(Context& ctx, const BufferSlice& state);
    void apply(Context& ctx, const paxos::Command& cmd);
    void apply_propose(Context& ctx, const ProposeCmd& cmd);
    void apply_commit(Context& ctx, const CommitCmd& cmd);
    void send_propose_ts(Context& ctx, const Entry& e);
    void maybe_submit_commit(Context& ctx, MsgId id);
    void try_deliver(Context& ctx);
    void submit_propose(Context& ctx, const AppMessage& m);
    // Boot-time WAL restore (two passes: watermark, then paxos records).
    void replay_wal(Context& ctx);

    Topology topo_;
    ProcessId pid_;
    GroupId g0_;
    DeliverySink sink_;
    ReplicaConfig cfg_;
    obs::StageRecorder stages_{"ftskeen"};
    paxos::MultiPaxos paxos_;
    elect::Elector elector_;

    // --- replicated state (only mutated in apply or install_state) ---------
    std::uint64_t clock_ = 0;
    std::unordered_map<MsgId, Entry> entries_;
    std::map<Timestamp, MsgId> pending_by_lts_;
    std::map<Timestamp, MsgId> committed_by_gts_;

    // --- per-replica delivery cursor ---------------------------------------
    // Deliveries happen in strictly increasing gts order at each member;
    // the watermark deduplicates the snapshot-install replay.
    Timestamp max_delivered_gts_;

    // --- application-log retention ------------------------------------------
    DeliveredFloor delivered_floor_;  // leader-side report fold
    CompactionQueue gc_queue_;        // delivered here, payload still held

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

    TimerId tick_timer_ = invalid_timer;
    TimerId paxos_gc_timer_ = invalid_timer;
};

}  // namespace wbam::ftskeen

#endif  // WBAM_FTSKEEN_FTSKEEN_HPP
