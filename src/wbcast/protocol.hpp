// The white-box atomic multicast protocol (Figure 4 of the paper): Skeen's
// timestamping across groups woven with a Paxos-style quorum round inside
// each group.
//
// Normal operation (collision-free latency 3δ at leaders, 4δ at followers):
//   MULTICAST  client        -> leaders of dest(m)
//   ACCEPT     each leader   -> every process of every dest group
//              (replicates the local-timestamp assignment AND speculatively
//               advances follower clocks past the future global timestamp —
//               the key white-box optimisation, lines 13-14)
//   ACCEPT_ACK each process  -> leaders of dest(m), tagged with the ballot
//              vector of the proposals it accepted
//   commit     a leader with quorum acks from every dest group computes the
//              global timestamp and delivers in gts order (convoy check)
//   DELIVER    leader -> own group, off the critical path
//
// Leader recovery (NEWLEADER / NEWLEADER_ACK / NEW_STATE / NEWSTATE_ACK)
// recomputes state from a quorum — committed entries survive from anyone,
// accepted entries survive from the maximal-cballot members — and re-sends
// DELIVER from the beginning (followers dedup via max_delivered_gts).
#ifndef WBAM_WBCAST_PROTOCOL_HPP
#define WBAM_WBCAST_PROTOCOL_HPP

#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "elect/elector.hpp"
#include "multicast/replica_core.hpp"
#include "wbcast/messages.hpp"

namespace wbam::wbcast {

enum class Status : std::uint8_t { leader, follower, recovering };
enum class Phase : std::uint8_t { start, proposed, accepted, committed };

class WbcastReplica final : public ReplicaCore {
public:
    WbcastReplica(const Topology& topo, ProcessId pid, DeliverySink sink,
                  ReplicaConfig cfg = {});

    void on_start(Context& ctx) override;

    // --- introspection for tests and benches -------------------------------
    Status status() const { return status_; }
    Ballot cballot() const { return cballot_; }
    Ballot ballot() const { return ballot_; }
    std::uint64_t clock() const { return clock_; }
    std::size_t entry_count() const { return entries_.size(); }
    std::size_t pending_count() const { return pending_by_lts_.size(); }
    GroupId group() const { return g0_; }

private:
    struct Entry {
        AppMessage msg;
        Phase phase = Phase::start;
        Timestamp lts;
        Timestamp gts;
        bool deliver_sent = false;  // leader's Delivered[] flag
        bool compacted = false;     // payload/vote state garbage-collected
        // Latest local-timestamp proposal received from each destination
        // group's leader (volatile; rebuilt by retries after recovery).
        std::map<GroupId, std::pair<Ballot, Timestamp>> accepts;
        // ACCEPT_ACK tally, keyed by the ballot vector acks were cast in.
        std::map<BallotVector, std::map<GroupId, std::set<ProcessId>>> acks;
        TimePoint last_activity = 0;
        int retries = 0;
    };

    struct Recovery {
        Ballot b;
        std::map<ProcessId, NewLeaderAckMsg> acks;
        std::set<ProcessId> state_acks;
        bool state_sent = false;
    };

    void dispatch_message(Context& ctx, ProcessId from,
                          const BufferSlice& bytes) override;
    void dispatch_timer(Context& ctx, TimerId id) override;
    void gc_round(Context& ctx) override;
    GcStep compact_entry(MsgId id) override;
    void gc_floor_raised(Timestamp floor) override;

    // -- normal operation
    void handle_multicast(Context& ctx, const AppMessage& m);
    void handle_accept(Context& ctx, ProcessId from, const AcceptMsg& a);
    void handle_accept_ack(Context& ctx, ProcessId from, MsgId id,
                           const AcceptAckMsg& a);
    void check_commit(Context& ctx, Entry& e);
    void handle_deliver(Context& ctx, const DeliverMsg& d);
    void try_deliver(Context& ctx);
    void send_accept(Context& ctx, const Entry& e);

    // -- leader change
    void on_trust_change(Context& ctx, ProcessId trusted);
    void recover(Context& ctx);
    void handle_newleader(Context& ctx, ProcessId from, const NewLeaderMsg& m);
    void handle_newleader_ack(Context& ctx, ProcessId from,
                              const NewLeaderAckMsg& m);
    void handle_new_state(Context& ctx, ProcessId from, const NewStateMsg& m);
    void handle_newstate_ack(Context& ctx, ProcessId from,
                             const NewStateAckMsg& m);
    std::vector<EntryState> snapshot_entries() const;

    // -- message recovery & garbage collection
    void retry_stuck(Context& ctx);
    void handle_gc_status(ProcessId from, const GcStatusMsg& m);
    void rebuild_gc_queue();
    void repair_lagging(Context& ctx);
    void resend_deliveries(Context& ctx, ProcessId to, Timestamp above);

    // -- durability (ReplicaConfig::wal)
    void log_entry(const Entry& e);
    void log_status(bool reset);
    void replay_wal(Context& ctx);
    // Installs one entry; the recovery handlers call it too.
    void restore_entry(const EntryState& es);
    void send_sync_req(Context& ctx);
    void handle_sync_req(Context& ctx, ProcessId from, const SyncReqMsg& m);

    ProcessId leader_guess(GroupId g) const;
    void drop_pending(Entry& e);

    elect::Elector elector_;

    Status status_ = Status::follower;
    Ballot cballot_;
    Ballot ballot_;
    std::uint64_t clock_ = 0;

    std::unordered_map<MsgId, Entry> entries_;
    // PROPOSED/ACCEPTED messages by local timestamp: the head blocks
    // delivery of committed messages with larger global timestamps.
    std::map<Timestamp, MsgId> pending_by_lts_;
    // Committed messages this leader has not yet sent DELIVER for.
    std::map<Timestamp, MsgId> committed_by_gts_;

    std::optional<Recovery> recovery_;
    TimePoint last_recover_attempt_ = 0;
    // Crash-recovery resync: a restarted follower stays in recovering
    // (DELIVERs dropped) until the leader answers its SYNC_REQ with
    // NEW_STATE + a DELIVER backfill; retried until answered.
    bool awaiting_resync_ = false;
    TimePoint last_sync_req_ = 0;
    int sync_attempts_ = 0;

    // GC: the last watermark each member reported and how many GC rounds
    // it has stalled below ours — a stall means lost DELIVERs
    // (crash-recovery restart), repaired by re-sending them in gts order.
    std::map<ProcessId, std::pair<Timestamp, int>> member_progress_;

    std::unordered_map<GroupId, ProcessId> remote_leader_hint_;
    TimerId retry_timer_ = invalid_timer;
};

}  // namespace wbam::wbcast

#endif  // WBAM_WBCAST_PROTOCOL_HPP
