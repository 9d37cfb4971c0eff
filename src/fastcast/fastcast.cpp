#include "fastcast/fastcast.hpp"

#include <algorithm>

#include "common/assert.hpp"

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
    : RsmReplica("fastcast",
                 GcTags{static_cast<std::uint8_t>(MsgType::gc_status),
                        static_cast<std::uint8_t>(MsgType::gc_prune)},
                 topo, pid, std::move(sink), cfg) {}

void FastCastReplica::handle_proto(Context& ctx, ProcessId from,
                                   codec::EnvelopeView& env) {
    switch (static_cast<MsgType>(env.type)) {
        case MsgType::spec_propose:
            handle_spec_propose(ctx, from, SpecProposeMsg::decode(env.body));
            return;
        case MsgType::confirm:
            handle_confirm(ctx, from, ConfirmMsg::decode(env.body));
            return;
        case MsgType::deliver_floor: {
            const DeliverFloorMsg m = DeliverFloorMsg::decode(env.body);
            // Leaders deliver through try_deliver.
            if (!paxos_.is_leader()) deliver_upto(ctx, m.floor);
            return;
        }
        default:
            return;
    }
}

void FastCastReplica::handle_multicast(Context& ctx, const AppMessage& m) {
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
            deliver(ctx, gts, e.msg);
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
        confirmed_.erase(id);
        spec_lts_.erase(id);
        last_driven_.erase(id);
        deliver(ctx, gts, e.msg);
        floor = gts;
    }
    // Release follower deliveries up to the new floor, off the critical
    // path (they already hold the committed entries via the RSM).
    if (floor > bottom_ts && floor == max_delivered_gts_)
        announce_floor(ctx, floor);
}

void FastCastReplica::announce_floor(Context& ctx, Timestamp floor) {
    const Buffer wire = codec::encode_envelope(
        proto, static_cast<std::uint8_t>(MsgType::deliver_floor), invalid_msg,
        DeliverFloorMsg{floor});
    for (const ProcessId p : topo_.members(g0_))
        if (p != pid_) ctx.send(p, wire);
}

void FastCastReplica::clear_leader_state() {
    tentative_.clear();
    spec_lts_.clear();
    confirmed_.clear();
    commit_submitted_.clear();
    last_driven_.clear();
}

void FastCastReplica::deliver_upto(Context& ctx, Timestamp floor) {
    while (!committed_by_gts_.empty()) {
        const auto [gts, id] = *committed_by_gts_.begin();
        if (gts > floor) break;
        // The leader's floor covers its own applied log. A follower with a
        // gap in its log (messages lost to a restart) may still miss the
        // commit of a message below `gts` whose proposal it holds: wait
        // for it, as the leader did, or it would be skipped for good.
        if (!pending_by_lts_.empty() && pending_by_lts_.begin()->first <= gts)
            break;
        committed_by_gts_.erase(committed_by_gts_.begin());
        deliver(ctx, gts, entries_.at(id).msg);
    }
}

void FastCastReplica::lead_tick(Context& ctx) {
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
    // Periodically re-announce the delivery floor so lagging followers
    // catch up even during quiet periods.
    if (max_delivered_gts_ > bottom_ts) announce_floor(ctx, max_delivered_gts_);
}

}  // namespace wbam::fastcast
