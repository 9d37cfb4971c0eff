// The replica scaffold every ordering row builds on (wbcast, ftskeen and
// fastcast): the machinery around a row's ordering logic, once.
//
//  * The handler wrapper. With batching or a WAL attached, each handler
//    runs under a BatchingContext whose flush point doubles as the WAL
//    group-commit point: every record the handler appended is durable
//    (one fsync per batch in group_commit mode) before any message it
//    produced leaves the process.
//  * The delivery point: compaction queue, watermark, durable watermark
//    record, `delivered` stage point and sink, in that order.
//  * WAL pass 1: the last durable watermark, restored before a row
//    replays its own records so that everything delivered before the
//    crash is recognised as delivered.
//  * The delivered-floor GC exchange (multicast/gc_floor.hpp): one GC
//    timer, the member report, the leader round and the prune floor.
//
// A row derives from ReplicaCore, implements dispatch_message and
// dispatch_timer, and keeps only its ordering logic. The black-box rows
// share a second layer on top of this one (paxos/rsm_replica.hpp).
#ifndef WBAM_MULTICAST_REPLICA_CORE_HPP
#define WBAM_MULTICAST_REPLICA_CORE_HPP

#include "common/batching.hpp"
#include "multicast/api.hpp"
#include "multicast/gc_floor.hpp"
#include "obs/stage.hpp"
#include "wal/log.hpp"

namespace wbam {

// A row's codec::Module::proto type values for the shared GC bodies.
struct GcTags {
    std::uint8_t status = 0;  // member -> leader: GcStatusMsg
    std::uint8_t prune = 0;   // leader -> group: GcPruneMsg
};

class ReplicaCore : public Process {
public:
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) final {
        run_handler(ctx, [&](Context& c) { dispatch_message(c, from, bytes); });
    }
    void on_timer(Context& ctx, TimerId id) final {
        run_handler(ctx, [&](Context& c) { dispatch_timer(c, id); });
    }

    Timestamp max_delivered_gts() const { return max_delivered_gts_; }
    // Entries the delivered floor shrank to payload stubs.
    std::size_t compacted_count() const { return gc_queue_.compacted(); }

protected:
    // `row` names the protocol in stage metrics, events and logs.
    ReplicaCore(const char* row, GcTags gc, const Topology& topo,
                ProcessId pid, DeliverySink sink, const ReplicaConfig& cfg);

    // Handler bodies, run under the wrapper above.
    virtual void dispatch_message(Context& ctx, ProcessId from,
                                  const BufferSlice& bytes) = 0;
    virtual void dispatch_timer(Context& ctx, TimerId id) = 0;

    // The delivery point. Queues m for compaction and, unless `gts` is
    // at-or-below the watermark (delivered already: a WAL replay or a
    // re-announcement), advances the watermark, makes it durable, records
    // the `delivered` stage and hands m to the sink. Deliveries happen in
    // strictly increasing gts order at each member, so the watermark is
    // also the dedupe.
    void deliver(Context& ctx, Timestamp gts, const AppMessage& m);

    // WAL pass 1: the highest durable watermark.
    void restore_watermark();

    // --- delivered-floor GC --------------------------------------------------
    // Arms the GC timer (ReplicaConfig::gc_enabled / gc_interval).
    void arm_gc(Context& ctx);
    // True (and re-armed) when `id` is the GC timer.
    bool gc_tick(Context& ctx, TimerId id);
    // Member side: reports the watermark to `leader` (not to ourselves).
    void report_delivered(Context& ctx, ProcessId leader) const;
    // Leader round: folds our own watermark, compacts up to the floor
    // (`compact_upto(floor)` returns how many entries it compacted) and
    // announces the floor — every round, not only on change, so a member
    // that missed an announcement (partition, snapshot heal, recovery)
    // learns it on the next one.
    template <class CompactUpto>
    void lead_gc_round(Context& ctx, CompactUpto&& compact_upto) {
        delivered_floor_.note(pid_, max_delivered_gts_);
        const Timestamp floor = delivered_floor_.floor();
        if (floor == bottom_ts) return;
        finish_gc_round(ctx, floor, compact_upto(floor));
    }
    // Member side: how far an announced floor lets this member compact.
    Timestamp prune_floor(const GcPruneMsg& m) const {
        return std::min(m.floor, max_delivered_gts_);
    }

    const char* row_;
    Topology topo_;
    ProcessId pid_;
    GroupId g0_;
    DeliverySink sink_;
    ReplicaConfig cfg_;
    obs::StageRecorder stages_;
    GcTags gc_tags_;
    Timestamp max_delivered_gts_;
    DeliveredFloor delivered_floor_;  // leader side: members' reports
    CompactionQueue gc_queue_;        // delivered here, payload still held

private:
    template <class Body>
    void run_handler(Context& ctx, Body&& body) {
        if (!cfg_.batching_enabled && cfg_.wal == nullptr) {
            body(ctx);
            return;
        }
        BatchingContext batched(ctx, cfg_.batch_max_bytes);
        body(batched);
        if (cfg_.wal) cfg_.wal->commit();
        batched.flush();
    }

    void finish_gc_round(Context& ctx, Timestamp floor, std::size_t compacted);

    TimerId gc_timer_ = invalid_timer;
};

}  // namespace wbam

#endif  // WBAM_MULTICAST_REPLICA_CORE_HPP
