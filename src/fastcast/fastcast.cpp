#include "fastcast/fastcast.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/batching.hpp"
#include "common/log.hpp"
#include "paxos/snapshot.hpp"
#include "wal/log.hpp"
#include "wal/mute_context.hpp"
#include "wal/records.hpp"

namespace wbam::fastcast {

namespace {
constexpr auto proto = codec::Module::proto;

paxos::Command make_cmd(CmdKind kind, MsgId about, const auto& body) {
    codec::Writer w;
    w.u8(static_cast<std::uint8_t>(kind));
    body.encode(w);
    return paxos::Command{about, std::move(w).take()};
}
}  // namespace

FastCastReplica::FastCastReplica(const Topology& topo, ProcessId pid,
                                 DeliverySink sink, ReplicaConfig cfg)
    : topo_(topo), pid_(pid), g0_(topo.group_of(pid)), sink_(std::move(sink)),
      cfg_(cfg),
      paxos_(topo.members_leader_first(topo.group_of(pid)), topo.quorum_size(),
             [this](Context& ctx, std::uint64_t, const paxos::Command& cmd) {
                 apply(ctx, cmd);
             },
             paxos::PaxosConfig{.retry_interval = cfg.retry_interval,
                                .cmd_cost = cfg.consensus_cmd_cost,
                                .gc_enabled = cfg.paxos_gc_enabled,
                                .gc_interval = cfg.paxos_gc_interval,
                                .wal = cfg.wal}),
      elector_(topo.members_leader_first(topo.group_of(pid)),
               elect::ElectorConfig{cfg.election_enabled,
                                    cfg.heartbeat_interval,
                                    cfg.suspect_timeout},
               [this](Context& ctx, ProcessId trusted) {
                   if (trusted == ctx.self()) paxos_.maybe_lead(ctx);
               }),
      delivered_floor_(topo.members(topo.group_of(pid))) {
    WBAM_ASSERT(g0_ != invalid_group);
    paxos_.set_state_handlers(
        [this](const BufferSlice& mark) -> Bytes {
            const Timestamp strip = paxos::decode_catchup_mark(mark);
            // Empty = cannot serve: the requester would have to replay
            // entries we hold only as payload stubs. It retries against
            // another peer (MultiPaxos skips the reply).
            if (!can_serve_snapshot(strip)) return {};
            return state_snapshot(strip);
        },
        [this](Context& ctx, const BufferSlice& s) { install_state(ctx, s); },
        [this] { return paxos::encode_catchup_mark(max_delivered_gts_); });
}

void FastCastReplica::on_start(Context& ctx) {
    paxos_.start(ctx);
    const bool restarted = cfg_.wal && !cfg_.wal->recovered().empty();
    if (restarted) replay_wal(ctx);
    elector_.start(ctx);
    tick_timer_ = ctx.set_timer(cfg_.retry_interval);
    if (cfg_.paxos_gc_enabled)
        paxos_gc_timer_ = ctx.set_timer(cfg_.paxos_gc_interval);
    // The elector's trust callback fires only on change, and a restarted
    // initial leader boots already trusting itself: re-establish leadership
    // explicitly (with a fresh ballot above the restored promise).
    if (restarted && cfg_.election_enabled && elector_.trusts_self(ctx))
        paxos_.maybe_lead(ctx);
}

void FastCastReplica::replay_wal(Context& ctx) {
    wal::Log& log = *cfg_.wal;
    // Pass 1: the last durable watermark. Restoring it before the records
    // replay suppresses re-delivery of everything the pre-crash process
    // already delivered and made durable (the delivery-loop guards).
    for (const wal::Record& r : log.recovered())
        if (r.type == wal::tag(wal::RecordType::watermark))
            max_delivered_gts_ =
                std::max(max_delivered_gts_, wal::decode_watermark(r.body));
    // Pass 2: feed the paxos engine in log order. The apply callbacks
    // rebuild the application log deterministically; sends are muted (the
    // pre-crash process already sent the originals, and the retry/catch-up
    // machinery re-syncs whatever peers still miss).
    wal::MuteContext mute(ctx);
    paxos_.begin_restore();
    log.replay([&](std::uint8_t type, const BufferSlice& body) {
        switch (static_cast<wal::RecordType>(type)) {
            case wal::RecordType::paxos_promised:
                paxos_.restore_promised(wal::decode_promised(body));
                break;
            case wal::RecordType::paxos_accepted: {
                const wal::AcceptedRecord rec = wal::decode_accepted(body);
                paxos_.restore_accepted(
                    rec.slot, rec.ballot,
                    paxos::Command{rec.about, rec.payload});
                break;
            }
            case wal::RecordType::paxos_chosen: {
                const wal::ChosenRecord rec = wal::decode_chosen(body);
                paxos_.restore_chosen(mute, rec.slot,
                                      paxos::Command{rec.about, rec.payload});
                break;
            }
            case wal::RecordType::paxos_snapshot: {
                const wal::SnapshotRecord rec = wal::decode_snapshot(body);
                paxos_.restore_snapshot(mute, rec.snap_upto, rec.state);
                break;
            }
            default:
                break;  // watermarks were folded in during pass 1
        }
    });
    paxos_.finish_restore();
    // A follower's deliveries wait for the leader's DELIVER_FLOOR; commits
    // replayed above the watermark drain when that floor re-announces
    // (dispatch_timer re-sends it periodically).
    deliver_upto(ctx, max_delivered_gts_);
    log::info("fastcast p", pid_, " replayed ", log.recovered().size(),
              " wal records, watermark ", to_string(max_delivered_gts_));
}

void FastCastReplica::on_message(Context& ctx, ProcessId from,
                       const BufferSlice& bytes) {
    if (!cfg_.batching_enabled && cfg_.wal == nullptr) {
        dispatch_message(ctx, from, bytes);
        return;
    }
    // Coalesce same-destination sends (the paxos phase-2 fan-out in
    // particular) into batch frames flushed at handler exit. With a WAL
    // attached the flush point doubles as the group-commit point: every
    // record this handler appended is durable (one fsync per batch in
    // group_commit mode) before any message it produced leaves.
    BatchingContext batched(ctx, cfg_.batch_max_bytes);
    dispatch_message(batched, from, bytes);
    if (cfg_.wal) cfg_.wal->commit();
    batched.flush();
}

void FastCastReplica::dispatch_message(Context& ctx, ProcessId from,
                                 const BufferSlice& bytes) {
    codec::EnvelopeView env(bytes);
    if (elector_.handle_message(ctx, from, env)) return;
    if (paxos_.handle_message(ctx, from, env)) return;
    if (env.module == codec::Module::client) {
        if (env.type != static_cast<std::uint8_t>(ClientMsgType::multicast))
            return;
        handle_multicast(ctx, AppMessage::decode(env.body));
        return;
    }
    if (env.module != proto) return;
    switch (static_cast<MsgType>(env.type)) {
        case MsgType::spec_propose:
            handle_spec_propose(ctx, from, SpecProposeMsg::decode(env.body));
            return;
        case MsgType::confirm:
            handle_confirm(ctx, from, ConfirmMsg::decode(env.body));
            return;
        case MsgType::deliver_floor:
            handle_deliver_floor(ctx, DeliverFloorMsg::decode(env.body));
            return;
        case MsgType::gc_status:
            handle_gc_status(from, GcStatusMsg::decode(env.body));
            return;
        case MsgType::gc_prune:
            handle_gc_prune(GcPruneMsg::decode(env.body));
            return;
    }
}

// --- application-log retention (the wbcast-style delivered floor) ------------

void FastCastReplica::app_gc_tick(Context& ctx) {
    if (paxos_.is_leader()) {
        run_app_gc(ctx);
        return;
    }
    // Idle members stay silent: nothing delivered means nothing to prune.
    if (max_delivered_gts_ == bottom_ts) return;
    const ProcessId leader = paxos_.leader_hint();
    if (leader == pid_ || leader == invalid_process) return;
    ctx.send(leader, codec::encode_envelope(
                         proto, static_cast<std::uint8_t>(MsgType::gc_status),
                         invalid_msg, GcStatusMsg{max_delivered_gts_}));
}

void FastCastReplica::handle_gc_status(ProcessId from, const GcStatusMsg& m) {
    if (!paxos_.is_leader()) return;  // stale: the reporter will re-aim
    delivered_floor_.note(from, m.max_delivered_gts);
}

void FastCastReplica::run_app_gc(Context& ctx) {
    delivered_floor_.note(pid_, max_delivered_gts_);
    const Timestamp floor = delivered_floor_.floor();
    if (floor == bottom_ts) return;
    const std::size_t n = compact_upto(floor);
    if (n > 0)
        obs::events().note("gc_prune",
                           "fastcast: compacted " + std::to_string(n) +
                               " entries at floor " + to_string(floor),
                           ctx.now());
    // Announce every round, not only on change: a member that missed an
    // earlier announcement (partition, snapshot heal) learns here.
    const Buffer wire = codec::encode_envelope(
        proto, static_cast<std::uint8_t>(MsgType::gc_prune), invalid_msg,
        GcPruneMsg{floor});
    for (const ProcessId p : topo_.members(g0_))
        if (p != pid_) ctx.send(p, wire);
}

void FastCastReplica::handle_gc_prune(const GcPruneMsg& m) {
    compact_upto(std::min(m.floor, max_delivered_gts_));
}

std::size_t FastCastReplica::compact_upto(Timestamp floor) {
    // A message delivered by every member of the group drops its payload;
    // the ordering facts (lts/gts/phase/commit_vec) stay, so late CONFIRM
    // retries and leader recovery remain correct (mirrors wbcast::compact).
    return gc_queue_.drain_upto(floor, [&](MsgId id) {
        Entry& e = entries_.at(id);
        if (e.phase != Phase::committed || e.compacted ||
            committed_by_gts_.count(e.gts))
            return GcStep::stale;
        e.msg.payload = BufferSlice{};
        e.compacted = true;
        return GcStep::compacted;
    });
}

void FastCastReplica::rebuild_gc_queue() {
    gc_queue_.rebuild(entries_, [&](const Entry& e) {
        return e.phase == Phase::committed &&
               committed_by_gts_.count(e.gts) == 0;
    });
}

void FastCastReplica::handle_multicast(Context& ctx, const AppMessage& m) {
    if (!paxos_.is_leader()) return;
    if (!m.addressed_to(g0_)) return;
    start_speculation(ctx, m);
}

void FastCastReplica::start_speculation(Context& ctx, const AppMessage& m) {
    if (tentative_.count(m.id) || entries_.count(m.id)) return;  // duplicate
    // Assign a tentative timestamp from the speculative clock and run the
    // first consensus and the inter-group exchange in parallel.
    spec_clock_ = std::max(spec_clock_, clock_) + 1;
    const Timestamp lts{spec_clock_, g0_};
    tentative_[m.id] = lts;
    stages_.record(obs::Stage::leader_receipt, m.submit_ts, ctx.now());
    spec_lts_[m.id][g0_] = lts;
    last_driven_[m.id] = ctx.now();
    paxos_.submit(ctx, make_cmd(CmdKind::propose, m.id, ProposeCmd{m, lts}));
    send_spec_propose(ctx, m, lts, /*broadcast=*/false);
    maybe_spec_commit(ctx, m.id, m);
}

void FastCastReplica::send_spec_propose(Context& ctx, const AppMessage& m,
                                        Timestamp lts, bool broadcast) {
    const Buffer wire = codec::encode_envelope(
        proto, static_cast<std::uint8_t>(MsgType::spec_propose), m.id,
        SpecProposeMsg{m, g0_, lts});
    for (const GroupId g : m.dests) {
        if (g == g0_) continue;
        if (broadcast) {
            for (const ProcessId p : topo_.members(g)) ctx.send(p, wire);
        } else {
            ctx.send(topo_.initial_leader(g), wire);
        }
    }
}

void FastCastReplica::handle_spec_propose(Context& ctx, ProcessId from,
                                          const SpecProposeMsg& m) {
    if (!paxos_.is_leader()) return;  // sender retries; new leader will act
    if (!m.msg.addressed_to(g0_)) return;
    // Doubles as message recovery: a group that never saw MULTICAST(m)
    // starts processing it now.
    if (!tentative_.count(m.msg.id) && !entries_.count(m.msg.id))
        start_speculation(ctx, m.msg);
    spec_lts_[m.msg.id][m.from_group] = m.lts;
    maybe_spec_commit(ctx, m.msg.id, m.msg);
    // A sender still speculating after we committed is a recovering leader
    // that lost the exchange state: resend our durable timestamp directly.
    const auto eit = entries_.find(m.msg.id);
    if (eit != entries_.end() && eit->second.phase == Phase::committed) {
        const Entry& e = eit->second;
        ctx.send(from, codec::encode_envelope(
                           proto, static_cast<std::uint8_t>(MsgType::spec_propose),
                           e.msg.id, SpecProposeMsg{e.msg, g0_, e.lts}));
        ctx.send(from, codec::encode_envelope(
                           proto, static_cast<std::uint8_t>(MsgType::confirm),
                           e.msg.id, ConfirmMsg{e.msg.id, g0_, e.lts}));
    }
}

void FastCastReplica::maybe_spec_commit(Context& ctx, MsgId id,
                                        const AppMessage& msg) {
    if (commit_submitted_.count(id)) return;
    const auto eit = entries_.find(id);
    if (eit != entries_.end() && eit->second.phase == Phase::committed) return;
    const auto sit = spec_lts_.find(id);
    if (sit == spec_lts_.end()) return;
    if (sit->second.size() != msg.dests.size()) return;
    LtsVector vec(sit->second.begin(), sit->second.end());
    Timestamp gts;
    for (const auto& [g, lts] : vec) gts = std::max(gts, lts);
    // Advance the speculative clock in line with the speculative global
    // timestamp so later tentative timestamps order after m.
    spec_clock_ = std::max(spec_clock_, gts.time);
    commit_submitted_[id] = ctx.now();
    paxos_.submit(ctx, make_cmd(CmdKind::commit, id, CommitCmd{id, vec}));
}

void FastCastReplica::apply(Context& ctx, const paxos::Command& cmd) {
    codec::Reader r(cmd.data);
    const auto kind = static_cast<CmdKind>(r.u8());
    switch (kind) {
        case CmdKind::propose: apply_propose(ctx, ProposeCmd::decode(r)); return;
        case CmdKind::commit: apply_commit(ctx, CommitCmd::decode(r)); return;
    }
    throw codec::DecodeError("unknown fastcast command");
}

void FastCastReplica::apply_propose(Context& ctx, const ProposeCmd& cmd) {
    Entry& e = entries_[cmd.msg.id];
    if (e.phase != Phase::start) return;  // a competing proposal won
    // The payload aliases the chosen-log command (compacted by MultiPaxos),
    // not a wire image, so retaining it here pins only the command bytes.
    e.msg = cmd.msg;
    e.lts = cmd.lts;
    e.phase = Phase::proposed;
    clock_ = std::max(clock_, cmd.lts.time);
    const bool fresh = pending_by_lts_.emplace(e.lts, cmd.msg.id).second;
    WBAM_ASSERT_MSG(fresh, "local timestamps must be unique within a group");
    tentative_.erase(cmd.msg.id);
    stages_.record(obs::Stage::ts_agreed, e.msg.submit_ts, ctx.now());
    if (paxos_.is_leader()) {
        // The timestamp is durable: confirm it to every destination leader
        // (including ourselves, directly).
        confirmed_[cmd.msg.id][g0_] = e.lts;
        spec_lts_[cmd.msg.id][g0_] = e.lts;
        send_confirm(ctx, e, /*broadcast=*/false);
        maybe_spec_commit(ctx, cmd.msg.id, e.msg);
        try_deliver(ctx);
    }
}

void FastCastReplica::send_confirm(Context& ctx, const Entry& e,
                                   bool broadcast) {
    const Buffer wire = codec::encode_envelope(
        proto, static_cast<std::uint8_t>(MsgType::confirm), e.msg.id,
        ConfirmMsg{e.msg.id, g0_, e.lts});
    for (const GroupId g : e.msg.dests) {
        if (g == g0_) continue;
        if (broadcast) {
            for (const ProcessId p : topo_.members(g)) ctx.send(p, wire);
        } else {
            ctx.send(topo_.initial_leader(g), wire);
        }
    }
}

void FastCastReplica::handle_confirm(Context& ctx, ProcessId from,
                                     const ConfirmMsg& m) {
    if (!paxos_.is_leader()) return;
    const auto it = entries_.find(m.id);
    if (it != entries_.end() && it->second.phase == Phase::committed &&
        it->second.gts <= max_delivered_gts_) {
        // Already delivered here: the sender is a recovering leader whose
        // confirm state died with its predecessor (or whose original
        // confirm went to ours). Answer with our durable timestamp so it
        // can unblock; nothing to record — our exchange is complete.
        ctx.send(from, codec::encode_envelope(
                           proto, static_cast<std::uint8_t>(MsgType::confirm),
                           m.id, ConfirmMsg{m.id, g0_, it->second.lts}));
        return;
    }
    confirmed_[m.id][m.from_group] = m.lts;
    try_deliver(ctx);
}

void FastCastReplica::apply_commit(Context& ctx, const CommitCmd& cmd) {
    const auto it = entries_.find(cmd.id);
    WBAM_ASSERT_MSG(it != entries_.end(),
                    "Commit can only follow Propose in the group log");
    Entry& e = it->second;
    Timestamp gts;
    for (const auto& [g, lts] : cmd.lts_vec) gts = std::max(gts, lts);
    if (e.phase == Phase::committed) {
        if (e.commit_vec == cmd.lts_vec) return;  // duplicate
        // Corrective commit after a speculation mismatch: re-key.
        committed_by_gts_.erase(e.gts);
    } else {
        pending_by_lts_.erase(e.lts);
        e.phase = Phase::committed;
        stages_.record(obs::Stage::gts_known, e.msg.submit_ts, ctx.now());
    }
    e.gts = gts;
    e.commit_vec = cmd.lts_vec;
    clock_ = std::max(clock_, gts.time);  // clock passes gts only here (8δ FFL)
    const bool unique = committed_by_gts_.emplace(gts, cmd.id).second;
    WBAM_ASSERT_MSG(unique, "global timestamps must be unique");
    commit_submitted_.erase(cmd.id);
    if (paxos_.is_leader()) try_deliver(ctx);
}

void FastCastReplica::try_deliver(Context& ctx) {
    if (!paxos_.is_leader()) return;
    Timestamp floor = max_delivered_gts_;
    while (!committed_by_gts_.empty()) {
        const auto [gts, id] = *committed_by_gts_.begin();
        if (!pending_by_lts_.empty() && pending_by_lts_.begin()->first <= gts)
            break;
        Entry& e = entries_.at(id);
        if (gts <= max_delivered_gts_) {
            // Already delivered (e.g. re-applied after leader change).
            committed_by_gts_.erase(committed_by_gts_.begin());
            gc_queue_.push(gts, id);
            continue;
        }
        // Speculation check: every group's durable timestamp must match the
        // committed vector before m may be delivered.
        bool all_confirmed = true;
        bool mismatch = false;
        const auto cit = confirmed_.find(id);
        for (const auto& [g, lts] : e.commit_vec) {
            if (cit == confirmed_.end()) {
                all_confirmed = false;
                break;
            }
            const auto git = cit->second.find(g);
            if (git == cit->second.end()) {
                all_confirmed = false;
                break;
            }
            if (git->second != lts) mismatch = true;
        }
        if (!all_confirmed) break;  // must wait: deliveries follow gts order
        if (mismatch) {
            // The speculative vector lost against durable timestamps: issue
            // a corrective commit with the confirmed vector.
            LtsVector vec(cit->second.begin(), cit->second.end());
            Timestamp fixed;
            for (const auto& [g, lts] : vec) fixed = std::max(fixed, lts);
            spec_clock_ = std::max(spec_clock_, fixed.time);
            if (!commit_submitted_.count(id)) {
                commit_submitted_[id] = ctx.now();
                paxos_.submit(ctx,
                              make_cmd(CmdKind::commit, id, CommitCmd{id, vec}));
            }
            break;
        }
        committed_by_gts_.erase(committed_by_gts_.begin());
        gc_queue_.push(gts, id);
        max_delivered_gts_ = gts;
        floor = gts;
        confirmed_.erase(id);
        spec_lts_.erase(id);
        last_driven_.erase(id);
        if (cfg_.wal)
            cfg_.wal->append(wal::tag(wal::RecordType::watermark),
                             wal::encode_watermark(max_delivered_gts_));
        stages_.record(obs::Stage::delivered, e.msg.submit_ts, ctx.now());
        sink_(ctx, g0_, e.msg);
    }
    if (floor > bottom_ts && floor == max_delivered_gts_) {
        // Release follower deliveries up to the new floor, off the critical
        // path (they already hold the committed entries via the RSM).
        const Buffer wire = codec::encode_envelope(
            proto, static_cast<std::uint8_t>(MsgType::deliver_floor),
            invalid_msg, DeliverFloorMsg{floor});
        for (const ProcessId p : topo_.members(g0_))
            if (p != pid_) ctx.send(p, wire);
    }
}

// --- consensus-log retention: state transfer --------------------------------

Bytes FastCastReplica::state_snapshot(Timestamp strip_upto) const {
    // Entries the receiver already delivered are omitted outright — it
    // keeps its own record of them (install_state preserves the delivered
    // past), so the snapshot's entry count is bounded by the receiver's
    // gap plus the undelivered tail, never the run length.
    const auto delivered_here = [&](const Entry& e) {
        return e.phase == Phase::committed &&
               committed_by_gts_.count(e.gts) == 0;
    };
    return paxos::encode_rsm_snapshot(
        clock_, entries_,
        [&](const Entry& e) {
            return !(delivered_here(e) && e.gts <= strip_upto);
        },
        [&](codec::Writer& w, const Entry& e) {
            StateEntry se{e.msg,   static_cast<std::uint8_t>(e.phase),
                          e.lts,   e.gts,
                          e.commit_vec, delivered_here(e),
                          e.compacted};
            se.encode(w);
        });
}

bool FastCastReplica::can_serve_snapshot(Timestamp strip_upto) const {
    return gc_queue_.max_compacted() <= strip_upto;
}

void FastCastReplica::install_state(Context& ctx, const BufferSlice& state) {
    // Keep the delivered past (the snapshot omits it); replace every
    // undelivered entry with the responder's authoritative view.
    for (auto it = entries_.begin(); it != entries_.end();) {
        const Entry& e = it->second;
        const bool delivered = e.phase == Phase::committed &&
                               committed_by_gts_.count(e.gts) == 0;
        if (delivered) {
            ++it;
        } else {
            it = entries_.erase(it);
        }
    }
    pending_by_lts_.clear();
    committed_by_gts_.clear();
    tentative_.clear();
    spec_lts_.clear();
    confirmed_.clear();
    commit_submitted_.clear();
    last_driven_.clear();
    // Messages the snapshotting member had already delivered: replayed
    // below in gts order, deduplicated by the delivery watermark.
    std::map<Timestamp, MsgId> replay;
    const std::size_t n = paxos::decode_rsm_snapshot(
        state, clock_, [&](codec::Reader& r) {
            const StateEntry se = StateEntry::decode(r);
            if (entries_.count(se.msg.id)) return;  // our delivered past wins
            Entry& e = entries_[se.msg.id];
            e.msg = se.msg;
            // entries_ is long-lived: detach from the snapshot wire image.
            e.msg.payload = e.msg.payload.compact();
            e.phase = static_cast<Phase>(se.phase);
            e.lts = se.lts;
            e.gts = se.gts;
            e.commit_vec = se.commit_vec;
            e.compacted = se.stripped;
            if (e.phase == Phase::proposed) {
                pending_by_lts_.emplace(e.lts, se.msg.id);
            } else if (e.phase == Phase::committed) {
                if (se.delivered) {
                    if (!se.stripped) replay.emplace(e.gts, se.msg.id);
                } else {
                    committed_by_gts_.emplace(e.gts, se.msg.id);
                }
            }
        });
    for (const auto& [gts, id] : replay) {
        if (gts <= max_delivered_gts_) continue;  // delivered before the gap
        max_delivered_gts_ = gts;
        if (cfg_.wal)
            cfg_.wal->append(wal::tag(wal::RecordType::watermark),
                             wal::encode_watermark(max_delivered_gts_));
        sink_(ctx, g0_, entries_.at(id).msg);
    }
    rebuild_gc_queue();
    log::info("fastcast p", pid_, " installed state snapshot (", n, " entries)");
}

void FastCastReplica::handle_deliver_floor(Context& ctx,
                                           const DeliverFloorMsg& m) {
    if (paxos_.is_leader()) return;  // leaders deliver through try_deliver
    deliver_upto(ctx, m.floor);
}

void FastCastReplica::deliver_upto(Context& ctx, Timestamp floor) {
    while (!committed_by_gts_.empty()) {
        const auto [gts, id] = *committed_by_gts_.begin();
        if (gts > floor) break;
        committed_by_gts_.erase(committed_by_gts_.begin());
        gc_queue_.push(gts, id);
        if (gts <= max_delivered_gts_) continue;
        max_delivered_gts_ = gts;
        if (cfg_.wal)
            cfg_.wal->append(wal::tag(wal::RecordType::watermark),
                             wal::encode_watermark(max_delivered_gts_));
        stages_.record(obs::Stage::delivered, entries_.at(id).msg.submit_ts,
                       ctx.now());
        sink_(ctx, g0_, entries_.at(id).msg);
    }
}

void FastCastReplica::on_timer(Context& ctx, TimerId id) {
    if (!cfg_.batching_enabled && cfg_.wal == nullptr) {
        dispatch_timer(ctx, id);
        return;
    }
    BatchingContext batched(ctx, cfg_.batch_max_bytes);
    dispatch_timer(batched, id);
    if (cfg_.wal) cfg_.wal->commit();
    batched.flush();
}

void FastCastReplica::dispatch_timer(Context& ctx, TimerId id) {
    if (elector_.handle_timer(ctx, id)) return;
    if (id == paxos_gc_timer_) {
        paxos_gc_timer_ = ctx.set_timer(cfg_.paxos_gc_interval);
        paxos_.on_gc_tick(ctx);
        app_gc_tick(ctx);
        return;
    }
    if (id != tick_timer_) return;
    tick_timer_ = ctx.set_timer(cfg_.retry_interval);
    paxos_.on_tick(ctx);
    // Trusted group-wide but not leading and not mid-phase-1: a nacked
    // leadership attempt (restart with a stale promise) backed off and the
    // elector will not re-fire — without this retry nobody ever leads.
    if (cfg_.election_enabled && elector_.trusts_self(ctx) &&
        !paxos_.is_leader() && !paxos_.establishing())
        paxos_.maybe_lead(ctx);
    if (!paxos_.is_leader()) return;
    // Re-drive speculation for stuck messages (lost messages, leader
    // changes here or in remote groups). pending_by_lts_ indexes exactly
    // the proposed entries; walk a copy of its ids, since a re-driven
    // commit may apply (and unindex) in place.
    std::vector<MsgId> proposed;
    proposed.reserve(pending_by_lts_.size());
    for (const auto& [lts, mid] : pending_by_lts_) proposed.push_back(mid);
    for (const MsgId mid : proposed) {
        const auto eit = entries_.find(mid);
        if (eit == entries_.end() || eit->second.phase != Phase::proposed)
            continue;
        const Entry& e = eit->second;
        auto& at = last_driven_[mid];
        if (ctx.now() - at < cfg_.retry_interval) continue;
        at = ctx.now();
        confirmed_[mid][g0_] = e.lts;
        spec_lts_[mid][g0_] = e.lts;
        send_spec_propose(ctx, e.msg, e.lts, /*broadcast=*/true);
        send_confirm(ctx, e, /*broadcast=*/true);
        maybe_spec_commit(ctx, mid, e.msg);
    }
    // Committed-but-undelivered entries: the CONFIRM exchange lives in
    // leader-volatile state, so a leader change on either side can strand
    // an entry with its commit chosen but its confirmations gone (the
    // originals were unicast to a since-dead leader). Self-confirm our own
    // durable timestamp — the applied Propose in our log IS the durable
    // value — and re-broadcast it; the remote leader answers with its own
    // (handle_confirm's already-delivered reply covers the asymmetric
    // case where it has long since moved on).
    bool reconfirmed = false;
    for (auto it = committed_by_gts_.upper_bound(max_delivered_gts_);
         it != committed_by_gts_.end(); ++it) {
        const MsgId mid = it->second;
        const Entry& e = entries_.at(mid);
        auto& at = last_driven_[mid];
        if (ctx.now() - at < cfg_.retry_interval) continue;
        at = ctx.now();
        confirmed_[mid][g0_] = e.lts;
        send_confirm(ctx, e, /*broadcast=*/true);
        reconfirmed = true;
    }
    if (reconfirmed) try_deliver(ctx);
    // Tentative messages whose Propose never applied (lost leadership mid
    // flight): resubmit.
    for (auto& [mid, lts] : tentative_) {
        auto& at = last_driven_[mid];
        if (ctx.now() - at < cfg_.retry_interval) continue;
        at = ctx.now();
        // The message content lives in spec_lts_ only if we originated it;
        // rebuild from scratch on the next client retry otherwise.
        (void)lts;
    }
    // Periodically re-announce the delivery floor so lagging followers
    // catch up even during quiet periods.
    if (max_delivered_gts_ > bottom_ts) {
        const Buffer wire = codec::encode_envelope(
            proto, static_cast<std::uint8_t>(MsgType::deliver_floor),
            invalid_msg, DeliverFloorMsg{max_delivered_gts_});
        for (const ProcessId p : topo_.members(g0_))
            if (p != pid_) ctx.send(p, wire);
    }
}

}  // namespace wbam::fastcast
