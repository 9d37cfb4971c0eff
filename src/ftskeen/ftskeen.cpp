#include "ftskeen/ftskeen.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/batching.hpp"
#include "common/log.hpp"
#include "paxos/snapshot.hpp"
#include "wal/log.hpp"
#include "wal/mute_context.hpp"
#include "wal/records.hpp"

namespace wbam::ftskeen {

namespace {
constexpr auto proto = codec::Module::proto;

paxos::Command make_cmd(CmdKind kind, MsgId about, const auto& body) {
    codec::Writer w;
    w.u8(static_cast<std::uint8_t>(kind));
    body.encode(w);
    return paxos::Command{about, std::move(w).take()};
}
}  // namespace

FtSkeenReplica::FtSkeenReplica(const Topology& topo, ProcessId pid,
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

void FtSkeenReplica::on_start(Context& ctx) {
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

void FtSkeenReplica::replay_wal(Context& ctx) {
    wal::Log& log = *cfg_.wal;
    // Pass 1: the last durable watermark. Restoring it before the records
    // replay suppresses re-delivery of everything the pre-crash process
    // already delivered and made durable (try_deliver's watermark guard).
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
    log::info("ftskeen p", pid_, " replayed ", log.recovered().size(),
              " wal records, watermark ", to_string(max_delivered_gts_));
}

void FtSkeenReplica::on_message(Context& ctx, ProcessId from,
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

void FtSkeenReplica::dispatch_message(Context& ctx, ProcessId from,
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
        case MsgType::propose_ts:
            handle_propose_ts(ctx, from, ProposeTsMsg::decode(env.body));
            return;
        case MsgType::gc_status:
            handle_gc_status(from, GcStatusMsg::decode(env.body));
            return;
        case MsgType::gc_prune:
            handle_gc_prune(GcPruneMsg::decode(env.body));
            return;
    }
}

void FtSkeenReplica::submit_propose(Context& ctx, const AppMessage& m) {
    if (propose_submitted_.count(m.id)) return;
    if (paxos_.submit(ctx, make_cmd(CmdKind::propose, m.id, ProposeCmd{m}))) {
        propose_submitted_[m.id] = Submitted{m, ctx.now()};
        stages_.record(obs::Stage::leader_receipt, m.submit_ts, ctx.now());
    }
}

void FtSkeenReplica::handle_multicast(Context& ctx, const AppMessage& m) {
    if (!paxos_.is_leader()) return;
    if (!m.addressed_to(g0_)) return;
    const auto it = entries_.find(m.id);
    if (it == entries_.end()) {
        submit_propose(ctx, m);
    } else if (it->second.phase == Phase::proposed) {
        // Duplicate MULTICAST (retry): other groups may be missing our
        // timestamp proposal.
        send_propose_ts(ctx, it->second);
    }
}

void FtSkeenReplica::send_propose_ts(Context& ctx, const Entry& e) {
    propose_ts_sent_[e.msg.id] = ctx.now();
    const Buffer wire = codec::encode_envelope(
        proto, static_cast<std::uint8_t>(MsgType::propose_ts), e.msg.id,
        ProposeTsMsg{e.msg, g0_, e.lts});
    for (const GroupId g : e.msg.dests) {
        if (g == g0_) continue;
        ctx.send(topo_.initial_leader(g), wire);
        // Leadership in remote groups may have moved; the periodic re-send
        // in on_timer plus receiver-side forwarding-by-retry cover that.
    }
}

void FtSkeenReplica::handle_propose_ts(Context& ctx, ProcessId from,
                                       const ProposeTsMsg& p) {
    if (!paxos_.is_leader()) return;  // sender will retry; new leader acts
    if (!p.msg.addressed_to(g0_)) return;
    // Message recovery: a PROPOSE_TS also tells us about m itself, in case
    // this group never received MULTICAST(m).
    const auto eit = entries_.find(p.msg.id);
    if (eit == entries_.end()) submit_propose(ctx, p.msg);
    collected_[p.msg.id][p.from_group] = p.lts;
    maybe_submit_commit(ctx, p.msg.id);
    // A sender still proposing after we committed is a recovering leader
    // that lost the exchange state: resend our timestamp directly (the
    // "groups that have already processed m resend the corresponding
    // protocol messages" rule of §IV).
    if (eit != entries_.end() && eit->second.phase == Phase::committed) {
        ctx.send(from, codec::encode_envelope(
                           proto, static_cast<std::uint8_t>(MsgType::propose_ts),
                           p.msg.id,
                           ProposeTsMsg{eit->second.msg, g0_, eit->second.lts}));
    }
}

void FtSkeenReplica::maybe_submit_commit(Context& ctx, MsgId id) {
    const auto eit = entries_.find(id);
    if (eit == entries_.end() || eit->second.phase != Phase::proposed) return;
    const auto cit = collected_.find(id);
    if (cit == collected_.end() ||
        cit->second.size() != eit->second.msg.dests.size())
        return;
    if (commit_submitted_.count(id)) return;
    Timestamp gts;
    for (const auto& [g, lts] : cit->second) gts = std::max(gts, lts);
    if (paxos_.submit(ctx, make_cmd(CmdKind::commit, id, CommitCmd{id, gts})))
        commit_submitted_[id] = ctx.now();
}

void FtSkeenReplica::apply(Context& ctx, const paxos::Command& cmd) {
    codec::Reader r(cmd.data);
    const auto kind = static_cast<CmdKind>(r.u8());
    switch (kind) {
        case CmdKind::propose: apply_propose(ctx, ProposeCmd::decode(r)); return;
        case CmdKind::commit: apply_commit(ctx, CommitCmd::decode(r)); return;
    }
    throw codec::DecodeError("unknown ftskeen command");
}

void FtSkeenReplica::apply_propose(Context& ctx, const ProposeCmd& cmd) {
    Entry& e = entries_[cmd.msg.id];
    if (e.phase != Phase::start) return;  // duplicate proposal
    // The payload aliases the chosen-log command (compacted by MultiPaxos),
    // not a wire image, so retaining it here pins only the command bytes.
    e.msg = cmd.msg;
    clock_ += 1;  // the local timestamp is assigned deterministically here
    e.lts = Timestamp{clock_, g0_};
    e.phase = Phase::proposed;
    pending_by_lts_.emplace(e.lts, cmd.msg.id);
    propose_submitted_.erase(cmd.msg.id);
    stages_.record(obs::Stage::ts_agreed, e.msg.submit_ts, ctx.now());
    if (paxos_.is_leader()) {
        // Now that the timestamp is persisted, exchange it with the other
        // destination groups (the Skeen PROPOSE step).
        collected_[cmd.msg.id][g0_] = e.lts;
        send_propose_ts(ctx, e);
        maybe_submit_commit(ctx, cmd.msg.id);
    }
}

void FtSkeenReplica::apply_commit(Context& ctx, const CommitCmd& cmd) {
    const auto it = entries_.find(cmd.id);
    WBAM_ASSERT_MSG(it != entries_.end(),
                    "Commit can only follow Propose in the group log");
    Entry& e = it->second;
    if (e.phase == Phase::committed) return;  // duplicate commit
    WBAM_ASSERT(e.phase == Phase::proposed);
    pending_by_lts_.erase(e.lts);
    e.phase = Phase::committed;
    e.gts = cmd.gts;
    // Only here does the clock pass the global timestamp — which is why
    // this protocol's failure-free latency is 2x its collision-free one.
    clock_ = std::max(clock_, cmd.gts.time);
    const bool unique = committed_by_gts_.emplace(cmd.gts, cmd.id).second;
    WBAM_ASSERT_MSG(unique, "global timestamps must be unique");
    stages_.record(obs::Stage::gts_known, e.msg.submit_ts, ctx.now());
    commit_submitted_.erase(cmd.id);
    collected_.erase(cmd.id);
    propose_ts_sent_.erase(cmd.id);
    try_deliver(ctx);
}

void FtSkeenReplica::try_deliver(Context& ctx) {
    // Identical to Figure 1 line 17, but evaluated autonomously by every
    // member of the RSM.
    while (!committed_by_gts_.empty()) {
        const auto& [gts, id] = *committed_by_gts_.begin();
        if (!pending_by_lts_.empty() && pending_by_lts_.begin()->first <= gts)
            break;
        gc_queue_.push(gts, id);
        if (gts <= max_delivered_gts_) {
            // At-or-below the restored watermark during WAL replay: the
            // pre-crash process already delivered it.
            committed_by_gts_.erase(committed_by_gts_.begin());
            continue;
        }
        Entry& e = entries_.at(id);
        max_delivered_gts_ = gts;
        if (cfg_.wal)
            cfg_.wal->append(wal::tag(wal::RecordType::watermark),
                             wal::encode_watermark(max_delivered_gts_));
        stages_.record(obs::Stage::delivered, e.msg.submit_ts, ctx.now());
        sink_(ctx, g0_, e.msg);
        committed_by_gts_.erase(committed_by_gts_.begin());
    }
}

// --- application-log retention (the wbcast-style delivered floor) ------------

void FtSkeenReplica::app_gc_tick(Context& ctx) {
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

void FtSkeenReplica::handle_gc_status(ProcessId from, const GcStatusMsg& m) {
    if (!paxos_.is_leader()) return;  // stale: the reporter will re-aim
    delivered_floor_.note(from, m.max_delivered_gts);
}

void FtSkeenReplica::run_app_gc(Context& ctx) {
    delivered_floor_.note(pid_, max_delivered_gts_);
    const Timestamp floor = delivered_floor_.floor();
    if (floor == bottom_ts) return;
    const std::size_t n = compact_upto(floor);
    if (n > 0)
        obs::events().note("gc_prune",
                           "ftskeen: compacted " + std::to_string(n) +
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

void FtSkeenReplica::handle_gc_prune(const GcPruneMsg& m) {
    compact_upto(std::min(m.floor, max_delivered_gts_));
}

std::size_t FtSkeenReplica::compact_upto(Timestamp floor) {
    // A message delivered by every member of the group drops its payload;
    // the ordering facts (lts/gts/phase) stay, so late PROPOSE_TS retries
    // and leader recovery remain correct (mirrors wbcast::compact).
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

void FtSkeenReplica::rebuild_gc_queue() {
    gc_queue_.rebuild(entries_, [&](const Entry& e) {
        return e.phase == Phase::committed &&
               committed_by_gts_.count(e.gts) == 0;
    });
}

// --- consensus-log retention: state transfer --------------------------------

Bytes FtSkeenReplica::state_snapshot(Timestamp strip_upto) const {
    // Entries the receiver already delivered are omitted outright — it
    // keeps its own record of them (install_state preserves the delivered
    // past), so shipping even their metadata would be dead weight. The
    // snapshot's entry count is therefore bounded by the receiver's gap
    // plus the undelivered tail, never the run length.
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
            StateEntry se{e.msg, static_cast<std::uint8_t>(e.phase), e.lts,
                          e.gts, delivered_here(e), e.compacted};
            se.encode(w);
        });
}

bool FtSkeenReplica::can_serve_snapshot(Timestamp strip_upto) const {
    return gc_queue_.max_compacted() <= strip_upto;
}

void FtSkeenReplica::install_state(Context& ctx, const BufferSlice& state) {
    // Keep the delivered past: the snapshot omits everything we reported
    // as delivered, so our own entries (full payloads or floor stubs) stay
    // the record of it. Every undelivered entry is replaced by the
    // responder's authoritative view.
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
    collected_.clear();
    propose_submitted_.clear();
    commit_submitted_.clear();
    propose_ts_sent_.clear();
    // Messages the snapshotting member had already delivered: replayed
    // below in gts order, so this member's delivery sequence stays the
    // group's sequence (the watermark skips what we delivered pre-gap).
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
    log::info("ftskeen p", pid_, " installed state snapshot (", n, " entries)");
}

void FtSkeenReplica::on_timer(Context& ctx, TimerId id) {
    if (!cfg_.batching_enabled && cfg_.wal == nullptr) {
        dispatch_timer(ctx, id);
        return;
    }
    BatchingContext batched(ctx, cfg_.batch_max_bytes);
    dispatch_timer(batched, id);
    if (cfg_.wal) cfg_.wal->commit();
    batched.flush();
}

void FtSkeenReplica::dispatch_timer(Context& ctx, TimerId id) {
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
    // Re-drive everything that may have been lost across leader changes.
    // pending_by_lts_ indexes exactly the proposed entries; walk a copy of
    // its ids, since a re-driven commit may apply (and unindex) in place.
    std::vector<MsgId> proposed;
    proposed.reserve(pending_by_lts_.size());
    for (const auto& [lts, mid] : pending_by_lts_) proposed.push_back(mid);
    for (const MsgId mid : proposed) {
        const auto eit = entries_.find(mid);
        if (eit == entries_.end() || eit->second.phase != Phase::proposed)
            continue;
        const Entry& e = eit->second;
        collected_[mid][g0_] = e.lts;  // volatile state lost on takeover
        const auto sent = propose_ts_sent_.find(mid);
        if (sent == propose_ts_sent_.end() ||
            ctx.now() - sent->second >= cfg_.retry_interval) {
            // Broadcast to whole remote groups: the leader guess may be
            // stale after remote leader changes.
            propose_ts_sent_[mid] = ctx.now();
            const Buffer wire = codec::encode_envelope(
                proto, static_cast<std::uint8_t>(MsgType::propose_ts), mid,
                ProposeTsMsg{e.msg, g0_, e.lts});
            for (const GroupId g : e.msg.dests)
                if (g != g0_)
                    for (const ProcessId p : topo_.members(g)) ctx.send(p, wire);
        }
        maybe_submit_commit(ctx, mid);
    }
    for (auto& [mid, sub] : propose_submitted_) {
        if (ctx.now() - sub.at < cfg_.retry_interval) continue;
        sub.at = ctx.now();
        paxos_.submit(ctx, make_cmd(CmdKind::propose, mid, ProposeCmd{sub.msg}));
    }
    // Commits submitted but never applied (lost with a leader change):
    // re-drive every due one this tick, not one per tick.
    std::vector<MsgId> stalled;
    for (const auto& [mid, at] : commit_submitted_) {
        if (ctx.now() - at < cfg_.retry_interval) continue;
        const auto eit = entries_.find(mid);
        if (eit != entries_.end() && eit->second.phase == Phase::proposed)
            stalled.push_back(mid);
    }
    for (const MsgId mid : stalled) {
        commit_submitted_.erase(mid);
        maybe_submit_commit(ctx, mid);
    }
}

}  // namespace wbam::ftskeen
