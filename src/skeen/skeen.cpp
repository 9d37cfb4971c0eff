#include "skeen/skeen.hpp"

#include "common/assert.hpp"
#include "common/log.hpp"

namespace wbam::skeen {

SkeenReplica::SkeenReplica(const Topology& topo, ProcessId pid,
                           DeliverySink sink, ReplicaConfig cfg)
    : ReplicaCore("skeen",
                  GcTags{static_cast<std::uint8_t>(MsgType::gc_status),
                         static_cast<std::uint8_t>(MsgType::gc_prune)},
                  topo, pid, std::move(sink), cfg) {
    WBAM_ASSERT_MSG(topo_.group_size() == 1,
                    "Skeen's protocol assumes singleton reliable groups");
}

void SkeenReplica::on_start(Context& ctx) {
    retry_timer_ = ctx.set_timer(cfg_.retry_interval);
    arm_gc(ctx);
}

void SkeenReplica::dispatch_message(Context& ctx, ProcessId from,
                                    const BufferSlice& bytes) {
    const codec::EnvelopeView env(bytes);
    switch (env.module) {
        case codec::Module::client: {
            if (env.type != static_cast<std::uint8_t>(ClientMsgType::multicast))
                return;
            codec::Reader body = env.body;
            handle_multicast(ctx, AppMessage::decode(body));
            return;
        }
        case codec::Module::proto: {
            if (env.type != static_cast<std::uint8_t>(MsgType::propose)) return;
            codec::Reader body = env.body;
            const ProposeMsg p = ProposeMsg::decode(body);
            // A PROPOSE speaks for its sender's group, which must be a
            // destination of a message addressed to us; anything else
            // could complete `proposals` without our own.
            if (p.from_group != topo_.group_of(from) ||
                !p.msg.addressed_to(g0_) || !p.msg.addressed_to(p.from_group))
                return;
            handle_propose(ctx, p);
            return;
        }
        default:
            return;  // not for this protocol
    }
}

void SkeenReplica::send_propose(Context& ctx, const Entry& e) {
    const Buffer wire = codec::encode_envelope(
        codec::Module::proto, static_cast<std::uint8_t>(MsgType::propose),
        e.msg.id, ProposeMsg{e.msg, g0_, e.lts});
    for (const GroupId g : e.msg.dests) ctx.send(topo_.member(g, 0), wire);
}

void SkeenReplica::handle_multicast(Context& ctx, const AppMessage& m) {
    if (!m.addressed_to(g0_)) return;
    Entry& e = entries_[m.id];
    e.last_activity = ctx.now();
    if (e.phase == Phase::start) {
        // Lines 9-12 of Figure 1: assign the local timestamp and propose it.
        e.msg = m;
        clock_ += 1;
        e.lts = Timestamp{clock_, g0_};
        e.phase = Phase::proposed;
        pending_by_lts_.emplace(e.lts, m.id);
        // Singleton groups: receipt and the local-timestamp assignment are
        // one step, so both watermarks land here.
        stages_.record(obs::Stage::leader_receipt, m.submit_ts, ctx.now());
        stages_.record(obs::Stage::ts_agreed, m.submit_ts, ctx.now());
    }
    // Duplicate MULTICAST (client retry): re-send PROPOSE with the stored
    // timestamp; receivers treat repeats idempotently.
    if (e.phase != Phase::committed || e.gts > max_delivered_gts_)
        send_propose(ctx, e);
}

void SkeenReplica::handle_propose(Context& ctx, const ProposeMsg& p) {
    Entry& e = entries_[p.msg.id];
    e.last_activity = ctx.now();
    if (e.msg.id == invalid_msg) e.msg = p.msg;  // learned via PROPOSE first
    if (e.phase == Phase::committed) return;     // duplicate after commit
    e.proposals[p.from_group] = p.lts;
    if (e.proposals.size() != e.msg.dests.size()) return;
    // Own proposal is always present here: it is sent to self on MULTICAST,
    // so completeness implies this process already timestamped m.
    WBAM_ASSERT(e.phase == Phase::proposed);

    // Lines 14-16: commit with the maximal local timestamp.
    Timestamp gts;
    for (const auto& [g, lts] : e.proposals) gts = std::max(gts, lts);
    e.gts = gts;
    clock_ = std::max(clock_, gts.time);
    pending_by_lts_.erase(e.lts);
    e.phase = Phase::committed;
    const bool inserted = committed_by_gts_.emplace(gts, e.msg.id).second;
    WBAM_ASSERT_MSG(inserted, "global timestamps must be unique");
    stages_.record(obs::Stage::gts_known, e.msg.submit_ts, ctx.now());
    try_deliver(ctx);
}

void SkeenReplica::try_deliver(Context& ctx) {
    // Line 17 of Figure 1: deliver committed messages in global-timestamp
    // order, as long as no PROPOSED message could still commit below them.
    while (!committed_by_gts_.empty()) {
        const auto [gts, id] = *committed_by_gts_.begin();
        if (!pending_by_lts_.empty() && pending_by_lts_.begin()->first <= gts)
            break;
        committed_by_gts_.erase(committed_by_gts_.begin());
        log::debug("skeen p", ctx.self(), " delivers msg ", id, " gts ",
                   to_string(gts));
        deliver(ctx, gts, entries_.at(id).msg);
    }
}

GcStep SkeenReplica::compact_entry(MsgId id) {
    // Delivered entries are never re-sent (processes are reliable in
    // Skeen's model): drop the payload so the retained entry stops
    // pinning the wire envelope it was decoded from.
    entries_.at(id).msg.payload = BufferSlice{};
    return GcStep::compacted;
}

void SkeenReplica::dispatch_timer(Context& ctx, TimerId id) {
    if (id != retry_timer_) return;
    retry_timer_ = ctx.set_timer(cfg_.retry_interval);
    // Message recovery: if the multicasting client crashed between sends,
    // some destinations may never have received m; re-multicast it.
    for (const auto& [lts, mid] : pending_by_lts_) {
        Entry& e = entries_.at(mid);
        if (ctx.now() - e.last_activity < cfg_.retry_interval) continue;
        e.last_activity = ctx.now();
        const Buffer wire = encode_multicast_request(e.msg);
        for (const GroupId g : e.msg.dests) ctx.send(topo_.member(g, 0), wire);
    }
}

}  // namespace wbam::skeen
