// Leader-based multi-Paxos over one group, embedded as a sub-component of
// a replica protocol (the "consensus as a black box" of the baseline
// multicast protocols). Pipelined phase 2 in steady state (one round trip
// leader -> quorum per command); phase 1 covers all open slots at once on
// leader change; chosen commands are applied strictly in slot order on
// every member.
#ifndef WBAM_PAXOS_MULTIPAXOS_HPP
#define WBAM_PAXOS_MULTIPAXOS_HPP

#include <deque>
#include <functional>
#include <map>
#include <set>

#include "codec/wire.hpp"
#include "common/process.hpp"
#include "obs/metrics.hpp"
#include "paxos/messages.hpp"

namespace wbam::wal {
class Log;
}  // namespace wbam::wal

namespace wbam::paxos {

struct PaxosConfig {
    Duration retry_interval = milliseconds(200);
    // CPU work the proposer performs per command driven through the engine
    // (benchmark cost model; zero in tests).
    Duration cmd_cost = 0;
    // Durability (last field: hosts initialise this struct with designated
    // initialisers in declaration order). When set, the engine appends its
    // acceptor/learner transitions — promised ballots, accepted and chosen
    // commands, installed catch-up snapshots — to the write-ahead log; the
    // host owns the log, drives commit() at its flush points, and replays
    // it through the restore_* API on boot.
    wal::Log* wal = nullptr;
};

class MultiPaxos {
public:
    // apply is invoked exactly once per slot, in slot order, on every
    // member (no-op gap fillers are skipped)... unless a member fell behind
    // the pruned floor: it then skips the gap by installing a peer's state
    // snapshot (InstallFn) and resumes slot-by-slot application after it.
    using ApplyFn =
        std::function<void(Context&, std::uint64_t slot, const Command&)>;
    // Serializes the host applier's replicated state as of applied_upto()
    // (called outside apply, so the state is slot-consistent).
    // `requester_mark` is the opaque metadata the requesting host attached
    // to its CatchupRequest (empty when the requester set no MarkFn): it
    // lets the snapshot omit data the requester already holds, keeping the
    // transfer proportional to the requester's gap rather than the run
    // length.
    using SnapshotFn = std::function<Bytes(const BufferSlice& requester_mark)>;
    // Replaces the host applier's replicated state with a peer's snapshot.
    // The host must also re-emit any externally visible effects the skipped
    // slots had (e.g. deliveries) exactly once.
    using InstallFn = std::function<void(Context&, const BufferSlice&)>;
    // Produces this member's catch-up mark (see SnapshotFn).
    using MarkFn = std::function<Bytes()>;

    MultiPaxos(std::vector<ProcessId> members, int quorum, ApplyFn apply,
               PaxosConfig cfg = {});

    // Required once the host sets a prune floor (set_prune_floor): without
    // state handlers a member below the pruned floor could never rejoin.
    void set_state_handlers(SnapshotFn snapshot, InstallFn install,
                            MarkFn mark = {});

    // Bootstrap: every member starts promised to ballot (1, members[0]);
    // members[0] leads without running phase 1.
    void start(Context& ctx);

    // Proposes a command. Returns false when this member neither leads nor
    // is establishing leadership (caller should retry later).
    bool submit(Context& ctx, Command cmd);

    // Starts phase 1 with a fresh ballot unless already leading/trying.
    // Drive this from the leader elector.
    void maybe_lead(Context& ctx);

    // Consumes codec::Module::paxos envelopes; returns true if consumed.
    bool handle_message(Context& ctx, ProcessId from, codec::EnvelopeView& env);

    // Periodic retransmission (in-flight proposals, stalled phase 1).
    void on_tick(Context& ctx);

    // Log retention, driven by the host's GC exchange. `floor` is the
    // group's applied floor (slots a quorum applied). apply_ready erases
    // the log below it, at most prune_steps_per_apply slots per slot
    // applied; the next floor first pays what is left of the previous one
    // (the load went idle), never the fresh floor itself.
    void set_prune_floor(std::uint64_t floor);
    // Asks `peer` for what this member misses (throttled per peer): for a
    // member behind prune_floor(), or behind the announcing leader.
    void request_catchup(Context& ctx, ProcessId peer);
    static constexpr std::uint64_t prune_steps_per_apply = 2;

    // -- WAL replay (boot-time restore; see ReplicaConfig::wal). Call order:
    // start(ctx), begin_restore(), one restore_* per log record in log
    // order (under a wal::MuteContext), finish_restore(). restore_chosen
    // runs the normal mark_chosen → apply path (so the host applier
    // replays deterministically); the in-replay flag on the log keeps
    // these calls from re-appending.
    //
    // Drops the bootstrap leadership start() granted members[0], so apply
    // callbacks that submit during replay queue nothing and send nothing.
    void begin_restore();
    void restore_promised(const Ballot& b);
    void restore_accepted(std::uint64_t slot, const Ballot& b, Command cmd);
    void restore_chosen(Context& ctx, std::uint64_t slot, Command cmd);
    void restore_snapshot(Context& ctx, std::uint64_t snap_upto,
                          const BufferSlice& state);
    // Recomputes next_slot_ and drops any leadership the pre-crash process
    // held: a restarted member rejoins as a follower and re-leads only via
    // the elector (maybe_lead picks a ballot above the restored promise).
    void finish_restore();

    bool is_leader() const { return leading_; }
    bool establishing() const { return phase1_pending_; }
    ProcessId leader_hint() const { return promised_.leader(); }
    std::uint64_t applied_upto() const { return applied_upto_; }
    std::uint64_t chosen_count() const { return chosen_.size(); }
    // Slots at-or-below this were erased from the chosen log.
    std::uint64_t pruned_upto() const { return pruned_upto_; }
    // Highest group-wide applied floor this member has learned (from its
    // host, or from a phase-1 quorum's pruned floors).
    std::uint64_t prune_floor() const { return prune_floor_; }

private:
    struct InFlight {
        Command cmd;
        std::set<ProcessId> acks;
        TimePoint last_sent = 0;
    };

    void propose_at(Context& ctx, std::uint64_t slot, Command cmd);
    void mark_chosen(Context& ctx, std::uint64_t slot, Command cmd,
                     bool announce);
    void apply_ready(Context& ctx);
    void finish_phase1(Context& ctx);

    void handle_p1a(Context& ctx, ProcessId from, const P1aMsg& m);
    void handle_p1b(Context& ctx, ProcessId from, const P1bMsg& m);
    void handle_p2a(Context& ctx, ProcessId from, const P2aMsg& m);
    void handle_p2b(Context& ctx, ProcessId from, const P2bMsg& m);
    void handle_chosen(Context& ctx, const ChosenMsg& m);
    void handle_nack(const NackMsg& m);

    // -- retention & catch-up
    void handle_catchup_request(Context& ctx, ProcessId from,
                                const CatchupRequestMsg& m);
    void handle_catchup_snapshot(Context& ctx, const CatchupSnapshotMsg& m);
    // Erases chosen/acceptor slots at-or-below min(floor, applied_upto_),
    // at most `budget` slots of them.
    void prune(std::uint64_t floor, std::uint64_t budget);

    std::vector<ProcessId> members_;
    std::size_t quorum_;
    ApplyFn apply_;
    PaxosConfig cfg_;
    SnapshotFn snapshot_;
    InstallFn install_;
    MarkFn mark_;
    ProcessId self_ = invalid_process;

    // acceptor state
    Ballot promised_;
    std::map<std::uint64_t, std::pair<Ballot, Command>> accepted_;

    // learner state. chosen_ holds slots in (pruned_upto_, ...]; entries
    // at-or-below the group-wide applied floor are erased as slots apply,
    // so the log's entry count stays O(slots chosen per GC window).
    std::map<std::uint64_t, Command> chosen_;
    std::uint64_t applied_upto_ = 0;  // slots start at 1
    std::uint64_t pruned_upto_ = 0;

    // retention state
    std::uint64_t prune_floor_ = 0;
    // Per-peer throttle: a request to an unresponsive peer must not mute
    // requests to a live one.
    std::map<ProcessId, TimePoint> catchup_requested_;

    // proposer state
    bool leading_ = false;
    bool phase1_pending_ = false;
    Ballot my_ballot_;
    std::uint64_t next_slot_ = 1;
    std::map<std::uint64_t, InFlight> inflight_;
    std::deque<Command> queue_;  // submitted while phase 1 runs
    std::map<ProcessId, P1bMsg> p1b_acks_;
    TimePoint phase1_started_ = 0;

    // White-box engine tracing: submit times of commands this member
    // proposed while leading, keyed by slot; folded into the process-wide
    // stage/paxos/{chosen,applied} histograms when the slot is chosen and
    // applied (the raw-consensus analogue of the multicast stage rows).
    std::map<std::uint64_t, TimePoint> submitted_at_;
    obs::StageHistogram* chosen_hist_;
    obs::StageHistogram* applied_hist_;
};

}  // namespace wbam::paxos

#endif  // WBAM_PAXOS_MULTIPAXOS_HPP
