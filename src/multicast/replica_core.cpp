#include "multicast/replica_core.hpp"

#include "common/assert.hpp"
#include "wal/records.hpp"

namespace wbam {

ReplicaCore::ReplicaCore(const char* row, GcTags gc, const Topology& topo,
                         ProcessId pid, DeliverySink sink,
                         const ReplicaConfig& cfg)
    : row_(row), topo_(topo), pid_(pid), g0_(topo.group_of(pid)),
      sink_(std::move(sink)), cfg_(cfg), stages_(row), gc_tags_(gc),
      delivered_floor_(topo.members(g0_)) {
    WBAM_ASSERT_MSG(g0_ != invalid_group, "a replica must be in a group");
}

void ReplicaCore::deliver(Context& ctx, Timestamp gts, const AppMessage& m) {
    gc_queue_.push(gts, m.id);
    if (gts <= max_delivered_gts_) return;
    max_delivered_gts_ = gts;
    // Durable before the handler's group-commit releases any message (and
    // before the app ever acks): replay re-emits exactly the deliveries
    // above the last watermark.
    if (cfg_.wal)
        cfg_.wal->append(wal::tag(wal::RecordType::watermark),
                         wal::encode_watermark(max_delivered_gts_));
    stages_.record(obs::Stage::delivered, m.submit_ts, ctx.now());
    sink_(ctx, g0_, m);
}

void ReplicaCore::restore_watermark() {
    for (const wal::Record& r : cfg_.wal->recovered())
        if (r.type == wal::tag(wal::RecordType::watermark))
            max_delivered_gts_ =
                std::max(max_delivered_gts_, wal::decode_watermark(r.body));
}

void ReplicaCore::arm_gc(Context& ctx) {
    if (cfg_.gc_enabled) gc_timer_ = ctx.set_timer(cfg_.gc_interval);
}

bool ReplicaCore::gc_tick(Context& ctx, TimerId id) {
    if (id != gc_timer_) return false;
    gc_timer_ = ctx.set_timer(cfg_.gc_interval);
    return true;
}

void ReplicaCore::report_delivered(Context& ctx, ProcessId leader) const {
    if (leader == pid_ || leader == invalid_process) return;
    ctx.send(leader, codec::encode_envelope(codec::Module::proto,
                                            gc_tags_.status, invalid_msg,
                                            GcStatusMsg{max_delivered_gts_}));
}

void ReplicaCore::finish_gc_round(Context& ctx, Timestamp floor,
                                  std::size_t compacted) {
    if (compacted > 0)
        obs::events().note("gc_prune",
                           std::string(row_) + ": compacted " +
                               std::to_string(compacted) +
                               " entries at floor " + to_string(floor),
                           ctx.now());
    const Buffer wire = codec::encode_envelope(
        codec::Module::proto, gc_tags_.prune, invalid_msg, GcPruneMsg{floor});
    for (const ProcessId p : topo_.members(g0_))
        if (p != pid_) ctx.send(p, wire);
}

}  // namespace wbam
