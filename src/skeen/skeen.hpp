// Skeen's protocol (Figure 1 of the paper): genuine atomic multicast among
// singleton groups of reliable processes. Messages are ordered by unique
// (logical clock, group) timestamps; the global timestamp of a message is
// the maximum of the local timestamps proposed by its destination groups.
// Collision-free latency 2δ (MULTICAST + PROPOSE); failure-free latency 4δ
// because of the convoy effect (Figure 2).
#ifndef WBAM_SKEEN_SKEEN_HPP
#define WBAM_SKEEN_SKEEN_HPP

#include <map>
#include <unordered_map>

#include "multicast/replica_core.hpp"

namespace wbam::skeen {

// Wire types within codec::Module::proto. The GC pair is the scaffold's
// (multicast/replica_core.hpp); a group of one never sends it.
enum class MsgType : std::uint8_t { propose = 0, gc_status = 1, gc_prune = 2 };

struct ProposeMsg {
    AppMessage msg;  // full message: receivers may see PROPOSE before MULTICAST
    GroupId from_group = invalid_group;
    Timestamp lts;

    void encode(codec::Writer& w) const {
        codec::write_field(w, msg);
        codec::write_field(w, from_group);
        codec::write_field(w, lts);
    }
    static ProposeMsg decode(codec::Reader& r) {
        ProposeMsg p;
        codec::read_field(r, p.msg);
        codec::read_field(r, p.from_group);
        codec::read_field(r, p.lts);
        return p;
    }
};

class SkeenReplica final : public ReplicaCore {
public:
    // The topology must consist of singleton groups (group_size == 1).
    // Skeen's processes are reliable, so it never replays: a WAL in
    // ReplicaConfig::wal only receives the scaffold's `delivered` records.
    SkeenReplica(const Topology& topo, ProcessId pid, DeliverySink sink,
                 ReplicaConfig cfg = {});

    void on_start(Context& ctx) override;

    // Introspection for tests.
    std::uint64_t clock() const { return clock_; }
    std::size_t undelivered_count() const {
        return pending_by_lts_.size() + committed_by_gts_.size();
    }

private:
    enum class Phase : std::uint8_t { start, proposed, committed };

    struct Entry {
        AppMessage msg;
        Phase phase = Phase::start;
        Timestamp lts;
        Timestamp gts;
        std::map<GroupId, Timestamp> proposals;
        TimePoint last_activity = 0;
    };

    void dispatch_message(Context& ctx, ProcessId from,
                          const BufferSlice& bytes) override;
    void dispatch_timer(Context& ctx, TimerId id) override;
    // In a group of one the delivered floor is our own watermark.
    void gc_round(Context& ctx) override { lead_gc_round(ctx); }
    GcStep compact_entry(MsgId id) override;

    void handle_multicast(Context& ctx, const AppMessage& m);
    void handle_propose(Context& ctx, const ProposeMsg& p);
    void try_deliver(Context& ctx);
    void send_propose(Context& ctx, const Entry& e);

    std::uint64_t clock_ = 0;
    std::unordered_map<MsgId, Entry> entries_;
    // Uncommitted (PROPOSED) messages keyed by local timestamp: the head
    // blocks delivery of any committed message with a larger global
    // timestamp (line 17 of Figure 1).
    std::map<Timestamp, MsgId> pending_by_lts_;
    // Committed but undelivered messages in global-timestamp order.
    std::map<Timestamp, MsgId> committed_by_gts_;
    TimerId retry_timer_ = invalid_timer;
};

}  // namespace wbam::skeen

#endif  // WBAM_SKEEN_SKEEN_HPP
