#include "ftskeen/ftskeen.hpp"

#include <algorithm>

#include "common/assert.hpp"

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
    : RsmReplica("ftskeen",
                 GcTags{static_cast<std::uint8_t>(MsgType::gc_status),
                        static_cast<std::uint8_t>(MsgType::gc_prune)},
                 topo, pid, std::move(sink), cfg) {}

void FtSkeenReplica::handle_proto(Context& ctx, ProcessId from,
                                  codec::EnvelopeView& env) {
    if (env.type == static_cast<std::uint8_t>(MsgType::propose_ts))
        handle_propose_ts(ctx, from, ProposeTsMsg::decode(env.body));
}

void FtSkeenReplica::submit_propose(Context& ctx, const AppMessage& m) {
    if (propose_submitted_.count(m.id)) return;
    if (paxos_.submit(ctx, make_cmd(CmdKind::propose, m.id, ProposeCmd{m}))) {
        propose_submitted_[m.id] = Submitted{m, ctx.now()};
        stages_.record(obs::Stage::leader_receipt, m.submit_ts, ctx.now());
    }
}

void FtSkeenReplica::handle_multicast(Context& ctx, const AppMessage& m) {
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
    // member of the RSM. During WAL replay, commits at-or-below the
    // restored watermark are retired without a second delivery.
    while (!committed_by_gts_.empty()) {
        const auto [gts, id] = *committed_by_gts_.begin();
        if (!pending_by_lts_.empty() && pending_by_lts_.begin()->first <= gts)
            break;
        committed_by_gts_.erase(committed_by_gts_.begin());
        deliver(ctx, gts, entries_.at(id).msg);
    }
}

void FtSkeenReplica::clear_leader_state() {
    collected_.clear();
    propose_submitted_.clear();
    commit_submitted_.clear();
    propose_ts_sent_.clear();
}

void FtSkeenReplica::lead_tick(Context& ctx) {
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
