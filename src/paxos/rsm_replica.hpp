// The replica scaffold of the black-box rows (ftskeen, fastcast): each
// group is a replicated state machine over MultiPaxos that simulates one
// reliable Skeen process. Everything but the ordering logic lives here
// once, on top of the shared ReplicaCore (multicast/replica_core.hpp):
//
//  * the MultiPaxos + Elector wiring, with the catch-up state handlers;
//  * on_start, including the restarted leader's re-lead;
//  * WAL pass 2: the paxos records, replayed through a MuteContext;
//  * the tick prelude (paxos retransmits, leadership retry);
//  * the application log: entries, the two timestamp indexes and the
//    clock, which apply() mutates on every member alike;
//  * the delivered-floor compaction of that log, and the catch-up
//    snapshot of it (state_snapshot / can_serve_snapshot / install_state);
//  * the consensus log's retention on the same GC exchange: the announced
//    applied floor, and catch-up for a member behind it.
//
// A row supplies the hooks below: apply() for its replicated commands,
// its MULTICAST and inter-group messages, the leader's tick, and a reset
// of its leader-volatile tables. Row-specific entry fields come in as
// `Ext` (a struct with encode_ext/decode_ext for the snapshot); a row
// without any uses NoEntryExt.
#ifndef WBAM_PAXOS_RSM_REPLICA_HPP
#define WBAM_PAXOS_RSM_REPLICA_HPP

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/log.hpp"
#include "elect/elector.hpp"
#include "multicast/replica_core.hpp"
#include "paxos/multipaxos.hpp"
#include "wal/mute_context.hpp"
#include "wal/records.hpp"

namespace wbam::paxos {

struct NoEntryExt {
    void encode_ext(codec::Writer&) const {}
    void decode_ext(codec::Reader&) {}
};

template <class Ext>
class RsmReplica : public ReplicaCore {
public:
    void on_start(Context& ctx) final;

    bool is_leader() const { return paxos_.is_leader(); }
    std::uint64_t clock() const { return clock_; }
    std::size_t undelivered_count() const {
        return pending_by_lts_.size() + committed_by_gts_.size();
    }
    // Consensus-log retention introspection for tests and benches.
    const MultiPaxos& paxos() const { return paxos_; }
    // Application-log retention introspection: total entries (stubs
    // included); compacted_count() says how many are stubs.
    std::size_t entry_count() const { return entries_.size(); }

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
    bool can_serve_snapshot(Timestamp strip_upto) const {
        return gc_queue_.max_compacted() <= strip_upto;
    }

protected:
    enum class Phase : std::uint8_t { start, proposed, committed };

    struct Entry : Ext {
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

    RsmReplica(const char* row, GcTags gc, const Topology& topo,
               ProcessId pid, DeliverySink sink, const ReplicaConfig& cfg);

    // --- the row's ordering logic -------------------------------------------
    // Applies one chosen command (every member, in slot order).
    virtual void apply(Context& ctx, const Command& cmd) = 0;
    // A MULTICAST addressed to this group, at the leader.
    virtual void handle_multicast(Context& ctx, const AppMessage& m) = 0;
    // The row's own Module::proto messages (the scaffold takes the GC
    // exchange's two types first).
    virtual void handle_proto(Context& ctx, ProcessId from,
                              codec::EnvelopeView& env) = 0;
    // The leader's share of the retry tick: re-drive what may have been
    // lost across leader changes.
    virtual void lead_tick(Context& ctx) = 0;
    // Drops the leader-volatile exchange state (snapshot install).
    virtual void clear_leader_state() = 0;

    // Committed and already emitted by this member.
    bool delivered_here(const Entry& e) const {
        return e.phase == Phase::committed &&
               committed_by_gts_.count(e.gts) == 0;
    }

    MultiPaxos paxos_;
    elect::Elector elector_;

    // --- replicated state (only mutated in apply or install_state) ----------
    std::uint64_t clock_ = 0;
    std::unordered_map<MsgId, Entry> entries_;
    std::map<Timestamp, MsgId> pending_by_lts_;    // proposed, by lts
    std::map<Timestamp, MsgId> committed_by_gts_;  // committed, undelivered

private:
    void dispatch_message(Context& ctx, ProcessId from,
                          const BufferSlice& bytes) final;
    void dispatch_timer(Context& ctx, TimerId id) final;
    void gc_round(Context& ctx) final;
    GcStep compact_entry(MsgId id) final;
    void replay_wal(Context& ctx);
    void install_state(Context& ctx, const BufferSlice& state);

    TimerId tick_timer_ = invalid_timer;
};

// --- implementation ----------------------------------------------------------

template <class Ext>
RsmReplica<Ext>::RsmReplica(const char* row, GcTags gc, const Topology& topo,
                            ProcessId pid, DeliverySink sink,
                            const ReplicaConfig& cfg)
    : ReplicaCore(row, gc, topo, pid, std::move(sink), cfg),
      paxos_(topo.members_leader_first(g0_), topo.quorum_size(),
             [this](Context& ctx, std::uint64_t, const Command& cmd) {
                 apply(ctx, cmd);
             },
             PaxosConfig{.retry_interval = cfg.retry_interval,
                         .cmd_cost = cfg.consensus_cmd_cost,
                         .wal = cfg.wal}),
      elector_(topo.members_leader_first(g0_),
               elect::ElectorConfig{cfg.election_enabled,
                                    cfg.heartbeat_interval,
                                    cfg.suspect_timeout},
               [this](Context& ctx, ProcessId trusted) {
                   if (trusted == ctx.self()) paxos_.maybe_lead(ctx);
               }) {
    // The catch-up mark (CatchupRequestMsg::mark) is the requester's
    // delivery watermark; an empty one means it holds nothing.
    paxos_.set_state_handlers(
        [this](const BufferSlice& mark) -> Bytes {
            Timestamp strip = bottom_ts;
            if (!mark.empty()) {
                codec::Reader r(mark);
                codec::read_field(r, strip);
            }
            // Empty = cannot serve: the requester would have to replay
            // entries we hold only as payload stubs. It retries against
            // another peer (MultiPaxos skips the reply).
            if (!can_serve_snapshot(strip)) return {};
            return state_snapshot(strip);
        },
        [this](Context& ctx, const BufferSlice& s) { install_state(ctx, s); },
        [this] {
            codec::Writer w;
            codec::write_field(w, max_delivered_gts_);
            return std::move(w).take();
        });
}

template <class Ext>
void RsmReplica<Ext>::on_start(Context& ctx) {
    paxos_.start(ctx);
    const bool restarted = cfg_.wal && !cfg_.wal->recovered().empty();
    if (restarted) replay_wal(ctx);
    elector_.start(ctx);
    tick_timer_ = ctx.set_timer(cfg_.retry_interval);
    arm_gc(ctx);
    // The elector's trust callback fires only on change, and a restarted
    // initial leader boots already trusting itself: re-establish leadership
    // explicitly (with a fresh ballot above the restored promise).
    if (restarted && cfg_.election_enabled && elector_.trusts_self(ctx))
        paxos_.maybe_lead(ctx);
}

template <class Ext>
void RsmReplica<Ext>::replay_wal(Context& ctx) {
    wal::Log& log = *cfg_.wal;
    // Pass 1 suppresses re-delivery of everything the pre-crash process
    // already delivered and made durable (the deliver() guard).
    restore_watermark();
    // Pass 2: feed the paxos engine in log order. The apply callbacks
    // rebuild the application log deterministically and re-emit the
    // deliveries above the watermark (logged once the replay ends); sends
    // are muted (the pre-crash process already sent the originals, and
    // the retry/catch-up machinery re-syncs whatever peers still miss).
    wal::MuteContext mute(ctx);
    paxos_.begin_restore();
    replay_records([&](std::uint8_t type, const BufferSlice& body) {
        switch (static_cast<wal::RecordType>(type)) {
            case wal::RecordType::paxos_promised:
                paxos_.restore_promised(wal::decode_promised(body));
                break;
            case wal::RecordType::paxos_accepted: {
                const wal::AcceptedRecord rec = wal::decode_accepted(body);
                paxos_.restore_accepted(rec.slot, rec.ballot,
                                        Command{rec.about, rec.payload});
                break;
            }
            case wal::RecordType::paxos_chosen: {
                const wal::ChosenRecord rec = wal::decode_chosen(body);
                paxos_.restore_chosen(mute, rec.slot,
                                      Command{rec.about, rec.payload});
                break;
            }
            case wal::RecordType::paxos_snapshot: {
                const wal::SnapshotRecord rec = wal::decode_snapshot(body);
                paxos_.restore_snapshot(mute, rec.snap_upto, rec.state);
                break;
            }
            default:
                break;  // deliveries were folded in during pass 1
        }
    });
    paxos_.finish_restore();
    // Replayed commits at-or-below the watermark were delivered before the
    // crash. A row that delivers on a leader's word (fastcast followers
    // wait for DELIVER_FLOOR) still holds them as undelivered: retire them.
    for (auto it = committed_by_gts_.begin();
         it != committed_by_gts_.end() && it->first <= max_delivered_gts_;
         it = committed_by_gts_.erase(it)) {
        gc_queue_.push(it->first, it->second);
        acks_.restore(it->second);
    }
    log::info(row_, " p", pid_, " replayed ", log.recovered().size(),
              " wal records, watermark ", to_string(max_delivered_gts_));
}

template <class Ext>
void RsmReplica<Ext>::dispatch_message(Context& ctx, ProcessId from,
                                       const BufferSlice& bytes) {
    codec::EnvelopeView env(bytes);
    if (elector_.handle_message(ctx, from, env)) return;
    if (paxos_.handle_message(ctx, from, env)) return;
    if (env.module == codec::Module::client) {
        if (env.type != static_cast<std::uint8_t>(ClientMsgType::multicast))
            return;
        const AppMessage m = AppMessage::decode(env.body);
        if (paxos_.is_leader() && m.addressed_to(g0_)) handle_multicast(ctx, m);
        return;
    }
    if (env.module != codec::Module::proto) return;
    if (env.type == gc_tags_.status) {
        const auto m = ::wbam::GcStatusMsg::decode(env.body);
        // A report reaching a non-leader is stale: the reporter re-aims.
        if (paxos_.is_leader())
            delivered_floor_.note(from, m.max_delivered_gts, m.applied_upto,
                                  ctx.now());
        return;
    }
    if (env.type == gc_tags_.prune) {
        const auto m = ::wbam::GcPruneMsg::decode(env.body);
        note_prune(m);
        paxos_.set_prune_floor(m.applied_floor);
        // Behind the announcing leader (lost CHOSEN traffic): ask it.
        if (m.applied_upto > paxos_.applied_upto())
            paxos_.request_catchup(ctx, from);
        return;
    }
    handle_proto(ctx, from, env);
}

template <class Ext>
void RsmReplica<Ext>::dispatch_timer(Context& ctx, TimerId id) {
    if (elector_.handle_timer(ctx, id)) return;
    if (id != tick_timer_) return;
    tick_timer_ = ctx.set_timer(cfg_.retry_interval);
    paxos_.on_tick(ctx);
    // Trusted group-wide but not leading and not mid-phase-1: a nacked
    // leadership attempt (restart with a stale promise) backed off and the
    // elector will not re-fire — without this retry nobody ever leads.
    if (cfg_.election_enabled && elector_.trusts_self(ctx) &&
        !paxos_.is_leader() && !paxos_.establishing())
        paxos_.maybe_lead(ctx);
    if (paxos_.is_leader()) lead_tick(ctx);
}

// --- retention: the delivered floor and the applied floor --------------------

template <class Ext>
void RsmReplica<Ext>::gc_round(Context& ctx) {
    const std::uint64_t applied = paxos_.applied_upto();
    if (paxos_.prune_floor() > applied) {
        // Behind a floor we learned (healed member, or a new leader whose
        // phase 1 revealed a pruned prefix): ask every round until healed,
        // both the deepest fresh reporter and the leader hint, so one lost
        // request or unservable peer cannot starve us.
        const ProcessId deepest =
            delivered_floor_.deepest(pid_, ctx.now(), gc_fresh_window());
        paxos_.request_catchup(ctx, deepest);
        if (!paxos_.is_leader() && paxos_.leader_hint() != deepest)
            paxos_.request_catchup(ctx, paxos_.leader_hint());
    }
    if (paxos_.is_leader()) {
        paxos_.set_prune_floor(lead_gc_round(ctx, applied));
        return;
    }
    // Idle members stay silent: nothing delivered or applied means
    // nothing to prune. The applied floor advances without them; a blank
    // (re)started member catches up by snapshot.
    if (max_delivered_gts_ == bottom_ts && applied == 0) return;
    report_delivered(ctx, paxos_.leader_hint(), applied);
}

template <class Ext>
GcStep RsmReplica<Ext>::compact_entry(MsgId id) {
    // A message delivered by every member of the group drops its payload;
    // the ordering facts (lts/gts/phase and the row's fields) stay, so late
    // inter-group retries and leader recovery remain correct.
    Entry& e = entries_.at(id);
    if (e.compacted || !delivered_here(e)) return GcStep::stale;
    e.msg.payload = BufferSlice{};
    e.compacted = true;
    return GcStep::compacted;
}

// --- catch-up: state transfer ------------------------------------------------

template <class Ext>
Bytes RsmReplica<Ext>::state_snapshot(Timestamp strip_upto) const {
    // The clock, then the shipped entries in ascending message-id order:
    // unordered_map iteration order must not leak into the bytes.
    std::vector<MsgId> ids;
    ids.reserve(entries_.size());
    for (const auto& [id, e] : entries_)
        if (!(delivered_here(e) && e.gts <= strip_upto)) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    codec::Writer w;
    codec::write_field(w, clock_);
    w.varint(ids.size());
    // Per entry: msg, phase, lts, gts, the row's fields, then whether this
    // member had delivered it (the installer replays exactly those through
    // its own sink) and whether it ships as a stub.
    for (const MsgId id : ids) {
        const Entry& e = entries_.at(id);
        codec::write_field(w, e.msg);
        codec::write_field(w, static_cast<std::uint8_t>(e.phase));
        codec::write_field(w, e.lts);
        codec::write_field(w, e.gts);
        e.encode_ext(w);
        codec::write_field(w, delivered_here(e));
        codec::write_field(w, e.compacted);
    }
    return std::move(w).take();
}

template <class Ext>
void RsmReplica<Ext>::install_state(Context& ctx, const BufferSlice& state) {
    // Keep the delivered past: the snapshot omits everything we reported
    // as delivered, so our own entries (full payloads or floor stubs) stay
    // the record of it, and the compaction queue stays valid as it is.
    // Every undelivered entry is replaced by the responder's authoritative
    // view.
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (delivered_here(it->second)) {
            ++it;
        } else {
            it = entries_.erase(it);
        }
    }
    pending_by_lts_.clear();
    committed_by_gts_.clear();
    clear_leader_state();
    // Messages the snapshotting member had already delivered: replayed
    // below in gts order, so this member's delivery sequence stays the
    // group's sequence (the watermark skips what we delivered pre-gap).
    std::map<Timestamp, MsgId> replay;
    codec::Reader r(state);
    codec::read_field(r, clock_);
    const std::size_t n = r.length();
    for (std::size_t i = 0; i < n; ++i) {
        Entry se;
        std::uint8_t phase = 0;
        bool delivered = false;
        codec::read_field(r, se.msg);
        codec::read_field(r, phase);
        codec::read_field(r, se.lts);
        codec::read_field(r, se.gts);
        se.decode_ext(r);
        codec::read_field(r, delivered);
        codec::read_field(r, se.compacted);
        const MsgId id = se.msg.id;
        if (entries_.count(id)) continue;  // our delivered past wins
        se.phase = static_cast<Phase>(phase);
        // entries_ is long-lived: detach from the snapshot wire image.
        se.msg.payload = se.msg.payload.compact();
        const Entry& e = entries_.emplace(id, std::move(se)).first->second;
        if (e.phase == Phase::proposed) {
            pending_by_lts_.emplace(e.lts, id);
        } else if (e.phase == Phase::committed) {
            if (!delivered) {
                committed_by_gts_.emplace(e.gts, id);
            } else if (!e.compacted) {
                replay.emplace(e.gts, id);
            }
        }
    }
    r.expect_done();
    // deliver() queues each replayed delivery for compaction.
    for (const auto& [gts, id] : replay) deliver(ctx, gts, entries_.at(id).msg);
    log::info(row_, " p", pid_, " installed state snapshot (", n, " entries)");
}

}  // namespace wbam::paxos

#endif  // WBAM_PAXOS_RSM_REPLICA_HPP
