// The replica scaffold every ordering row builds on (skeen, wbcast,
// ftskeen and fastcast): the machinery around a row's ordering logic, once.
//
//  * The client-ack rule (multicast/client_ack.hpp): every message passes
//    through it before the row sees it, and every delivery, replayed ones
//    included, marks it, so the replica acks its own clients.
//  * The handler wrapper: the WAL's durability gate. With a WAL attached,
//    each handler runs under a wal::HoldContext; the log commits (one
//    fsync per handler in group_commit mode) and only then are the
//    handler's sends released, each as its own frame, so no message
//    leaves the process before the records its handler appended are
//    durable. Without a WAL the handler sends directly.
//  * The delivery point: compaction queue, watermark, the `delivered`
//    WAL record, `delivered` stage point, sink and client ack, in that
//    order, then at most gc_steps_per_delivery steps of compaction debt.
//    The `delivered` record {gts, id} is the replica's one durable record
//    of a delivery: its watermark is rebuilt from these records, and so
//    is the bench plane's delivery sequence (ctrl::NodeShim).
//  * WAL pass 1: the watermark, the highest `delivered` gts, restored
//    before a row replays its own records so that everything delivered
//    before the crash is recognised as delivered.
//  * WAL pass 2's wrapper: a row's replay runs with appends muted, so the
//    deliveries it re-emits (above the watermark) are logged once it ends.
//  * The delivered-floor GC exchange (multicast/gc_floor.hpp): one GC
//    timer, the member report, the leader round and the prune floor.
//    A round only raises the floor; the compaction it licenses is paid
//    off by the deliveries that follow, a bounded few per delivery, so
//    no handler compacts a whole interval's worth of entries at once.
//    The black-box rows carry their consensus log's applied progress on
//    the same exchange, so each group runs one GC round, not two.
//
// A row derives from ReplicaCore, implements dispatch_message,
// dispatch_timer, gc_round and compact_entry, and keeps only its ordering
// logic. The black-box rows share a second layer on top of this one
// (paxos/rsm_replica.hpp).
#ifndef WBAM_MULTICAST_REPLICA_CORE_HPP
#define WBAM_MULTICAST_REPLICA_CORE_HPP

#include <functional>
#include <vector>

#include "multicast/api.hpp"
#include "multicast/client_ack.hpp"
#include "multicast/gc_floor.hpp"
#include "obs/stage.hpp"
#include "wal/hold_context.hpp"
#include "wal/log.hpp"
#include "wal/records.hpp"

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
        acks_.on_request(ctx, from, bytes);
        run_handler(ctx, [&](Context& c) { dispatch_message(c, from, bytes); });
    }
    void on_timer(Context& ctx, TimerId id) final {
        run_handler(ctx, [&](Context& c) {
            if (!gc_tick(c, id)) dispatch_timer(c, id);
        });
    }

    Timestamp max_delivered_gts() const { return max_delivered_gts_; }
    // Entries the delivered floor shrank to payload stubs.
    std::size_t compacted_count() const { return gc_queue_.compacted(); }
    // The floor this member may compact up to, and how many delivered
    // entries at or below it still hold their payload.
    Timestamp gc_floor() const { return gc_floor_; }
    std::size_t gc_debt() const { return gc_queue_.count_upto(gc_floor_); }

    // Queued entries each delivery compacts, at most. One delivery queues
    // one entry, so two per delivery pay off a round's debt within about
    // half a GC interval of steady load.
    static constexpr std::size_t gc_steps_per_delivery = 2;

protected:
    // `row` names the protocol in stage metrics, events and logs.
    ReplicaCore(const char* row, GcTags gc, const Topology& topo,
                ProcessId pid, DeliverySink sink, const ReplicaConfig& cfg);

    // Handler bodies, run under the wrapper above.
    virtual void dispatch_message(Context& ctx, ProcessId from,
                                  const BufferSlice& bytes) = 0;
    virtual void dispatch_timer(Context& ctx, TimerId id) = 0;
    // The row's share of a GC tick: the leader round (lead_gc_round) or
    // the member report (report_delivered).
    virtual void gc_round(Context& ctx) = 0;
    // Compacts one queued entry: drops its payload, keeps its ordering
    // facts.
    virtual GcStep compact_entry(MsgId id) = 0;
    // The floor rose to `floor` (wbcast makes it durable).
    virtual void gc_floor_raised(Timestamp /*floor*/) {}

    // The delivery point. Queues m for compaction and, unless `gts` is
    // at-or-below the watermark (delivered already: a WAL replay or a
    // re-announcement), advances the watermark, logs the delivery,
    // records the `delivered` stage, hands m to the sink and compacts at
    // most gc_steps_per_delivery entries at or below the floor.
    // Deliveries happen in strictly increasing gts order at each member,
    // so the watermark is also the dedupe. Either way the ack rule learns
    // that m is delivered here, and acks it if a client is waiting.
    void deliver(Context& ctx, Timestamp gts, const AppMessage& m);

    // WAL pass 1: the watermark, the highest gts among the `delivered`
    // records.
    void restore_watermark();
    // WAL pass 2: hands every recovered record to `fn` (wal::Log::replay,
    // appends muted), then logs and commits the deliveries the replay
    // re-emitted, in delivery order, so the next restart's watermark and
    // delivery sequence include them.
    void replay_records(
        const std::function<void(std::uint8_t type, const BufferSlice& body)>&
            fn);

    // --- delivered-floor GC --------------------------------------------------
    // Arms the GC timer (ReplicaConfig::gc_enabled / gc_interval).
    void arm_gc(Context& ctx);
    // Member side: reports the watermark and the consensus log's
    // `applied_upto` (0 without one) to `leader` (not to ourselves).
    void report_delivered(Context& ctx, ProcessId leader,
                          std::uint64_t applied_upto = 0) const;
    // Leader round: folds our own report, raises the floor and announces
    // both floors and our `applied_upto` — every round, not only on
    // change, so a member that missed an announcement (partition, snapshot
    // heal, recovery) learns it on the next one. Returns the applied floor.
    std::uint64_t lead_gc_round(Context& ctx, std::uint64_t applied_upto = 0);
    // Reports younger than this count towards the applied floor.
    Duration gc_fresh_window() const { return 3 * cfg_.gc_interval; }
    // Member side: an announced floor, capped by our own watermark.
    void note_prune(const GcPruneMsg& m) {
        raise_gc_floor(std::min(m.floor, max_delivered_gts_));
    }
    // A floor restored from durable state (WAL replay), compacted at once.
    void restore_gc_floor(Timestamp floor);

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
    // A WAL replay that restores a delivery without passing deliver()
    // marks it here (acks_.restore), so a resent request is re-acked.
    ClientAckRule acks_;

private:
    template <class Body>
    void run_handler(Context& ctx, Body&& body) {
        if (cfg_.wal == nullptr) {
            body(ctx);
            return;
        }
        wal::HoldContext held(ctx);
        body(held);
        cfg_.wal->commit();
        held.release();
    }

    // True (and handled) when `id` is the GC timer.
    bool gc_tick(Context& ctx, TimerId id);
    void raise_gc_floor(Timestamp floor);
    void drain_gc(Timestamp floor, std::size_t budget);

    TimerId gc_timer_ = invalid_timer;
    Timestamp gc_floor_;        // compaction is licensed up to here
    Timestamp licensed_floor_;  // gc_floor_ as of the previous GC tick
    // Deliveries a WAL replay re-emitted, logged once the log takes
    // appends again (replay_records).
    std::vector<wal::DeliveredRecord> replay_delivered_;
};

}  // namespace wbam

#endif  // WBAM_MULTICAST_REPLICA_CORE_HPP
