#include "multicast/replica_core.hpp"

#include <cstdint>

#include "common/assert.hpp"

namespace wbam {

ReplicaCore::ReplicaCore(const char* row, GcTags gc, const Topology& topo,
                         ProcessId pid, DeliverySink sink,
                         const ReplicaConfig& cfg)
    : row_(row), topo_(topo), pid_(pid), g0_(topo.group_of(pid)),
      sink_(std::move(sink)), cfg_(cfg), stages_(row), gc_tags_(gc),
      delivered_floor_(topo.members(g0_),
                       static_cast<std::size_t>(topo.quorum_size())),
      acks_(topo, pid) {
    WBAM_ASSERT_MSG(g0_ != invalid_group, "a replica must be in a group");
}

void ReplicaCore::deliver(Context& ctx, Timestamp gts, const AppMessage& m) {
    gc_queue_.push(gts, m.id);
    if (gts <= max_delivered_gts_) {
        // Delivered already (a WAL replay or a re-announcement): the
        // bitmap learns it, and no request is waiting for it.
        acks_.on_delivered(ctx, m.id);
        return;
    }
    max_delivered_gts_ = gts;
    // Durable before the handler's group-commit releases any message (and
    // before the app ever acks): replay re-emits exactly the deliveries
    // whose record is missing, all above the last logged gts.
    if (cfg_.wal) {
        const wal::DeliveredRecord rec{gts, m.id};
        if (cfg_.wal->in_replay())
            replay_delivered_.push_back(rec);
        else
            cfg_.wal->append(wal::tag(wal::RecordType::delivered),
                             wal::encode_delivered(rec));
    }
    stages_.record(obs::Stage::delivered, m.submit_ts, ctx.now());
    sink_(ctx, g0_, m);
    acks_.on_delivered(ctx, m.id);
    drain_gc(gc_floor_, gc_steps_per_delivery);
}

void ReplicaCore::restore_watermark() {
    for (const wal::Record& r : cfg_.wal->recovered())
        if (r.type == wal::tag(wal::RecordType::delivered))
            max_delivered_gts_ = std::max(max_delivered_gts_,
                                          wal::decode_delivered(r.body).gts);
}

void ReplicaCore::replay_records(
    const std::function<void(std::uint8_t type, const BufferSlice& body)>&
        fn) {
    cfg_.wal->replay(fn);
    for (const wal::DeliveredRecord& rec : replay_delivered_)
        cfg_.wal->append(wal::tag(wal::RecordType::delivered),
                         wal::encode_delivered(rec));
    std::vector<wal::DeliveredRecord>().swap(replay_delivered_);
    cfg_.wal->commit();
}

void ReplicaCore::arm_gc(Context& ctx) {
    if (cfg_.gc_enabled) gc_timer_ = ctx.set_timer(cfg_.gc_interval);
}

bool ReplicaCore::gc_tick(Context& ctx, TimerId id) {
    if (id != gc_timer_) return false;
    gc_timer_ = ctx.set_timer(cfg_.gc_interval);
    // Debt licensed before the previous tick had a whole interval of
    // deliveries to pay it off; what is left (the load went idle) goes
    // now. Not the floor raised since: a group's GC timers fire within a
    // few ms of each other, and draining a fresh floor here would stall
    // every member on a round's worth of compaction, one after another.
    drain_gc(licensed_floor_, SIZE_MAX);
    gc_round(ctx);
    licensed_floor_ = gc_floor_;
    return true;
}

void ReplicaCore::report_delivered(Context& ctx, ProcessId leader,
                                   std::uint64_t applied_upto) const {
    if (leader == pid_ || leader == invalid_process) return;
    ctx.send(leader,
             codec::encode_envelope(codec::Module::proto, gc_tags_.status,
                                    invalid_msg,
                                    GcStatusMsg{max_delivered_gts_,
                                                applied_upto}));
}

std::uint64_t ReplicaCore::lead_gc_round(Context& ctx,
                                         std::uint64_t applied_upto) {
    delivered_floor_.note(pid_, max_delivered_gts_, applied_upto, ctx.now());
    const GcPruneMsg m{
        delivered_floor_.floor(),
        delivered_floor_.applied_floor(ctx.now(), gc_fresh_window()),
        applied_upto};
    if (m.floor == bottom_ts && m.applied_floor == 0) return 0;
    raise_gc_floor(m.floor);
    const Buffer wire = codec::encode_envelope(
        codec::Module::proto, gc_tags_.prune, invalid_msg, m);
    for (const ProcessId p : topo_.members(g0_))
        if (p != pid_) ctx.send(p, wire);
    return m.applied_floor;
}

void ReplicaCore::raise_gc_floor(Timestamp floor) {
    if (floor <= gc_floor_) return;
    gc_floor_ = floor;
    gc_floor_raised(floor);
}

void ReplicaCore::restore_gc_floor(Timestamp floor) {
    gc_floor_ = licensed_floor_ = std::max(gc_floor_, floor);
    drain_gc(gc_floor_, SIZE_MAX);
}

void ReplicaCore::drain_gc(Timestamp floor, std::size_t budget) {
    gc_queue_.drain_upto(
        floor, [this](MsgId id) { return compact_entry(id); }, budget);
}

}  // namespace wbam
