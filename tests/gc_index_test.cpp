// Tests for the GC compaction index (multicast/gc_floor.hpp): the
// CompactionQueue itself, and the invariant every protocol row must keep
// across the events that rebuild its entry table wholesale — wbcast's
// NEWLEADER recompute, NEW_STATE install and WAL replay, ftskeen/fastcast
// snapshot install and WAL replay. Compaction only looks at the queue, so
// a delivered entry that never reached it would keep its payload forever.
// After each event the cluster runs more traffic and quiesces; then every
// replica must hold nothing but stubs (every entry was delivered by the
// whole group, so every entry is at or below the group floor). Also here:
// compaction is spread over deliveries (no handler call compacts a whole
// round), so is the consensus-log prune of ftskeen and fastcast (no
// handler call prunes a whole round of slots), and wbcast logs one floor
// record per raise, not one stub record per entry.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fastcast/fastcast.hpp"
#include "ftskeen/ftskeen.hpp"
#include "test_util.hpp"
#include "wal/log.hpp"
#include "wbcast/protocol.hpp"

namespace wbam {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::ProtocolKind;
using testutil::row_name;
using testutil::WalSet;

Timestamp ts(std::uint64_t time, GroupId g = 0) { return Timestamp{time, g}; }

// --- the queue ---------------------------------------------------------------

std::vector<MsgId> drain_all(CompactionQueue& q, Timestamp floor) {
    std::vector<MsgId> out;
    q.drain_upto(floor, [&](MsgId id) {
        out.push_back(id);
        return GcStep::compacted;
    });
    return out;
}

TEST(CompactionQueueTest, DrainsInGtsOrderUpToTheFloor) {
    CompactionQueue q;
    for (std::uint64_t t = 1; t <= 5; ++t) q.push(ts(t), 100 + t);
    EXPECT_EQ(q.size(), 5u);
    EXPECT_EQ(drain_all(q, ts(3)), (std::vector<MsgId>{101, 102, 103}));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.compacted(), 3u);
    EXPECT_EQ(q.max_compacted(), ts(3));
    // Nothing at or below an older floor is left.
    EXPECT_TRUE(drain_all(q, ts(2)).empty());
    // The group tag orders equal times, as Timestamp does.
    EXPECT_TRUE(drain_all(q, ts(4, -1)).empty());
    EXPECT_EQ(drain_all(q, ts(100)), (std::vector<MsgId>{104, 105}));
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.compacted(), 5u);
}

TEST(CompactionQueueTest, NotYetEndsTheRoundAndStaleIsForgotten) {
    CompactionQueue q;
    for (std::uint64_t t = 1; t <= 4; ++t) q.push(ts(t), t);
    std::vector<MsgId> offered;
    const std::size_t n = q.drain_upto(ts(4), [&](MsgId id) {
        offered.push_back(id);
        if (id == 1) return GcStep::stale;
        if (id == 3) return GcStep::not_yet;
        return GcStep::compacted;
    });
    EXPECT_EQ(n, 1u);  // only 2
    EXPECT_EQ(offered, (std::vector<MsgId>{1, 2, 3}));
    EXPECT_EQ(q.compacted(), 1u);
    EXPECT_EQ(q.max_compacted(), ts(2));
    // 3 stays at the head and is offered again next round.
    EXPECT_EQ(drain_all(q, ts(4)), (std::vector<MsgId>{3, 4}));
}

TEST(CompactionQueueTest, OutOfOrderAndRepeatedPushesKeepGtsOrder) {
    CompactionQueue q;
    q.push(ts(2), 2);
    q.push(ts(5), 5);
    q.push(ts(3), 3);
    q.push(ts(5), 5);  // repeat: ignored
    q.push(ts(1), 1);
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(drain_all(q, ts(10)), (std::vector<MsgId>{1, 2, 3, 5}));
}

TEST(CompactionQueueTest, LongRunReclaimsThePoppedPrefix) {
    // Many rounds that each drain part of the queue: order and size stay
    // right across the prefix reclamation.
    CompactionQueue q;
    std::uint64_t next = 1;
    std::uint64_t expect = 1;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 50; ++i, ++next) q.push(ts(next), next);
        q.drain_upto(ts(next - 20), [&](MsgId id) {
            EXPECT_EQ(id, expect++);
            return GcStep::compacted;
        });
        EXPECT_EQ(q.size(), 19u);
    }
    EXPECT_EQ(q.compacted(), expect - 1);
}

struct FakeEntry {
    Timestamp gts;
    bool compacted = false;
    bool delivered = false;
};

TEST(CompactionQueueTest, RebuildSortsQueueAndRecountsStubs) {
    CompactionQueue q;
    q.push(ts(99), 99);  // replaced by the rebuild
    const std::map<MsgId, FakeEntry> table{
        {1, {ts(7), false, true}},  {2, {ts(3), true, true}},
        {3, {ts(5), false, true}},  {4, {ts(9), true, true}},
        {5, {ts(8), false, false}},  // undelivered: not queued
        {6, {ts(1), false, true}},
    };
    q.rebuild(table, [](const FakeEntry& e) { return e.delivered; });
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.compacted(), 2u);
    EXPECT_EQ(q.max_compacted(), ts(9));
    EXPECT_EQ(drain_all(q, ts(100)), (std::vector<MsgId>{6, 3, 1}));

    CompactionQueue empty;
    EXPECT_EQ(empty.max_compacted(), bottom_ts);
    empty.rebuild(std::map<MsgId, FakeEntry>{}, [](const FakeEntry&) {
        return true;
    });
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.max_compacted(), bottom_ts);
}

// --- the index invariant across table rebuilds -------------------------------

ClusterConfig index_config(ProtocolKind kind, std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.kind = kind;
    cfg.groups = 2;
    cfg.group_size = 3;
    cfg.clients = 1;
    cfg.seed = seed;
    cfg.delta = milliseconds(1);
    cfg.replica.heartbeat_interval = milliseconds(5);
    cfg.replica.suspect_timeout = milliseconds(20);
    cfg.replica.retry_interval = milliseconds(25);
    cfg.replica.gc_interval = milliseconds(50);
    cfg.client_retry = milliseconds(50);
    cfg.trace_sends = true;
    return cfg;
}

// Steady traffic over [from, to): single-group ops to either group and
// cross-group ops, so both the fast and the cross-group paths deliver.
void traffic(Cluster& c, TimePoint from, TimePoint to,
             Duration every = milliseconds(5)) {
    int i = 0;
    for (TimePoint t = from; t < to; t += every, ++i) {
        std::vector<GroupId> dests =
            i % 3 == 0 ? std::vector<GroupId>{0}
            : i % 3 == 1 ? std::vector<GroupId>{0, 1}
                         : std::vector<GroupId>{1};
        c.multicast_at(t, 0, std::move(dests), Bytes{0x5a, 0xa5});
    }
}

struct Retention {
    std::size_t entries = 0;
    std::size_t compacted = 0;
};

Retention retention_of(Cluster& c, ProtocolKind kind, ProcessId p) {
    switch (kind) {
        case ProtocolKind::wbcast: {
            auto& r = c.world().process_as<wbcast::WbcastReplica>(p);
            return {r.entry_count(), r.compacted_count()};
        }
        case ProtocolKind::ftskeen: {
            auto& r = c.world().process_as<ftskeen::FtSkeenReplica>(p);
            EXPECT_TRUE(r.can_serve_snapshot(r.max_delivered_gts()));
            return {r.entry_count(), r.compacted_count()};
        }
        case ProtocolKind::fastcast: {
            auto& r = c.world().process_as<fastcast::FastCastReplica>(p);
            EXPECT_TRUE(r.can_serve_snapshot(r.max_delivered_gts()));
            return {r.entry_count(), r.compacted_count()};
        }
        default:
            ADD_FAILURE() << "no GC index in this row";
            return {};
    }
}

void expect_everything_compacted(Cluster& c, ProtocolKind kind) {
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(c.log().completed_count(), c.log().multicasts().size());
    for (const GroupId g : c.topo().all_groups()) {
        for (const ProcessId p : c.topo().members(g)) {
            const Retention r = retention_of(c, kind, p);
            EXPECT_GT(r.entries, 0u) << "replica " << p;
            EXPECT_EQ(r.compacted, r.entries)
                << "replica " << p << ": only " << r.compacted << " of "
                << r.entries << " delivered entries compacted";
        }
    }
}

std::size_t snapshots_sent_to(Cluster& c, ProcessId p) {
    std::size_t n = 0;
    for (const sim::SendRecord& r : c.world().send_trace())
        if (r.to == p &&
            r.module == static_cast<std::uint8_t>(codec::Module::paxos) &&
            r.type ==
                static_cast<std::uint8_t>(paxos::MsgType::catchup_snapshot))
            ++n;
    return n;
}

// A cluster whose replicas log to `wals`, for kill/restart schedules.
ClusterConfig durable_config(WalSet& wals, ProtocolKind kind,
                             std::uint64_t seed) {
    ClusterConfig cfg = index_config(kind, seed);
    wals.attach(cfg);
    return cfg;
}

void kill_and_restart(Cluster& c, WalSet& wals, ProcessId p, TimePoint kill,
                      TimePoint restart) {
    c.world().at(kill, [&c, p] { c.world().crash(p); });
    c.world().at(restart, [&c, &wals, p] {
        wals.kill_and_reopen(p);
        EXPECT_GT(wals.logs[static_cast<std::size_t>(p)]
                      ->stats()
                      .records_recovered,
                  0u);
        c.restart_replica(p);
    });
}

class GcIndexTest : public ::testing::TestWithParam<ProtocolKind> {};

// A follower is killed and restarted from its WAL after a short outage.
// ftskeen and fastcast rebuild from the replay (the outage is too short
// for the consensus log to be pruned past the member, so it catches up
// from the retained log suffix, with no state install); wbcast replays,
// then resyncs through the leader's NEW_STATE.
TEST_P(GcIndexTest, FollowerRestartedFromWal) {
    const ProtocolKind kind = GetParam();
    WalSet wals(6, "gc_index_follower_" + row_name(kind));
    Cluster c(durable_config(wals, kind, 3));
    const ProcessId victim = c.topo().member(0, 2);
    traffic(c, milliseconds(2), milliseconds(600));
    kill_and_restart(c, wals, victim, milliseconds(150), milliseconds(180));
    c.run_for(milliseconds(2500));
    expect_everything_compacted(c, kind);
}

// Group 0's leader is killed and restarted from its WAL while traffic
// continues. wbcast rebuilds its table at the new leader's NEWLEADER
// recompute and the followers' NEW_STATE install while it is down, then
// in its WAL replay, its resync and its own NEWLEADER round when it leads
// again; ftskeen and fastcast rebuild theirs in the replay and in the
// snapshot install that heals the longer outage.
TEST_P(GcIndexTest, LeaderKilledAndRestartedFromWal) {
    const ProtocolKind kind = GetParam();
    WalSet wals(6, "gc_index_leader_" + row_name(kind));
    Cluster c(durable_config(wals, kind, 5));
    const ProcessId leader = c.topo().initial_leader(0);
    traffic(c, milliseconds(2), milliseconds(600));
    kill_and_restart(c, wals, leader, milliseconds(150), milliseconds(300));
    c.run_for(milliseconds(2500));
    if (kind == ProtocolKind::wbcast) {
        // The leader change really happened (a NEWLEADER round ran).
        EXPECT_GT(c.world().process_as<wbcast::WbcastReplica>(leader)
                      .cballot()
                      .round,
                  1u);
    }
    expect_everything_compacted(c, kind);
}

// --- compaction spread over deliveries ---------------------------------------

// What the watched handler calls did while load flowed.
struct CallLedger {
    TimePoint until = 0;  // calls starting before this are watched
    std::map<ProcessId, std::size_t> delivered;  // counted by the sink
    std::size_t compacting_calls = 0;
    std::size_t over_budget = 0;
    std::string first_over;
};

// Wraps one replica and reads compacted_count() around every handler
// call: a call may compact at most gc_steps_per_delivery entries for each
// message it delivered.
class CompactionWatch final : public Process {
public:
    CompactionWatch(ProcessId self, std::unique_ptr<Process> inner,
                    CallLedger& ledger)
        : self_(self), inner_(std::move(inner)), ledger_(ledger) {
        for (Process* p = inner_.get(); p != nullptr && core_ == nullptr;
             p = p->wrapped())
            core_ = dynamic_cast<ReplicaCore*>(p);
    }

    void on_start(Context& ctx) override { inner_->on_start(ctx); }
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override {
        watch(ctx, "message", [&] { inner_->on_message(ctx, from, bytes); });
    }
    void on_timer(Context& ctx, TimerId id) override {
        watch(ctx, "timer", [&] { inner_->on_timer(ctx, id); });
    }
    Process* wrapped() override { return inner_.get(); }

private:
    template <class Call>
    void watch(Context& ctx, const char* kind, Call&& call) {
        const bool on = ctx.now() < ledger_.until;
        const std::size_t compacted0 = core_->compacted_count();
        const std::size_t delivered0 = ledger_.delivered[self_];
        call();
        if (!on || core_->compacted_count() <= compacted0) return;
        const std::size_t compacted = core_->compacted_count() - compacted0;
        const std::size_t delivered = ledger_.delivered[self_] - delivered0;
        ++ledger_.compacting_calls;
        if (compacted <= ReplicaCore::gc_steps_per_delivery * delivered)
            return;
        if (ledger_.over_budget++ == 0)
            ledger_.first_over = "p" + std::to_string(self_) + "'s " + kind +
                                 " call at " + std::to_string(ctx.now()) +
                                 " ns compacted " + std::to_string(compacted) +
                                 " entries and delivered " +
                                 std::to_string(delivered);
    }

    ProcessId self_;
    std::unique_ptr<Process> inner_;
    CallLedger& ledger_;
    ReplicaCore* core_ = nullptr;
};

// A few thousand deliveries per group under GC: while load flows, no
// handler call compacts more than the per-delivery constant per message
// it delivers (the GC round and the prune only raise the floor). Once
// load stops, the GC ticks pay off the rest: every member's floor reaches
// its watermark and every delivered entry is a stub.
TEST_P(GcIndexTest, NoHandlerCompactsAWholeRound) {
    const ProtocolKind kind = GetParam();
    ClusterConfig cfg = index_config(kind, 11);
    cfg.trace_sends = false;
    const TimePoint load_end = milliseconds(1000);
    CallLedger ledger;
    ledger.until = load_end;
    cfg.extra_sink = [&ledger](Context& ctx, GroupId, const AppMessage&) {
        ++ledger.delivered[ctx.self()];
    };
    cfg.wrap_replica = [&ledger](ProcessId p, std::unique_ptr<Process> r) {
        return std::make_unique<CompactionWatch>(p, std::move(r), ledger);
    };
    Cluster c(cfg);
    traffic(c, milliseconds(2), load_end, microseconds(250));
    c.run_until(load_end + 6 * cfg.replica.gc_interval);

    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(c.log().completed_count(), c.log().multicasts().size());
    EXPECT_GE(c.log().multicasts().size(), 3900u);
    // Compaction did run while load flowed, spread over many calls.
    EXPECT_GT(ledger.compacting_calls, 1000u);
    EXPECT_EQ(ledger.over_budget, 0u) << ledger.first_over;
    for (ProcessId p = 0; p < c.topo().num_replicas(); ++p) {
        auto& core = c.world().process_as<ReplicaCore>(p);
        EXPECT_EQ(core.gc_floor(), core.max_delivered_gts()) << "replica " << p;
        EXPECT_EQ(core.gc_debt(), 0u) << "replica " << p;
    }
    expect_everything_compacted(c, kind);
}

INSTANTIATE_TEST_SUITE_P(AllRows, GcIndexTest,
                         ::testing::Values(ProtocolKind::wbcast,
                                           ProtocolKind::ftskeen,
                                           ProtocolKind::fastcast),
                         [](const auto& info) { return row_name(info.param); });

// With elections off, a restarted wbcast leader resumes leading straight
// from its WAL replay: no NEW_STATE or NEWLEADER round rebuilds its table
// afterwards, so the replay's rebuild alone must queue its delivered past.
TEST(GcIndexWbcastTest, LeaderResumesFromWalReplay) {
    WalSet wals(6, "gc_index_wbcast_resume");
    ClusterConfig cfg = durable_config(wals, ProtocolKind::wbcast, 9);
    cfg.replica.election_enabled = false;
    Cluster c(cfg);
    const ProcessId leader = c.topo().initial_leader(0);
    traffic(c, milliseconds(2), milliseconds(600));
    kill_and_restart(c, wals, leader, milliseconds(150), milliseconds(180));
    c.run_for(milliseconds(2500));
    auto& r = c.world().process_as<wbcast::WbcastReplica>(leader);
    EXPECT_EQ(r.status(), wbcast::Status::leader);
    EXPECT_EQ(r.cballot().round, 1u);  // no leader change
    expect_everything_compacted(c, ProtocolKind::wbcast);
}

// The compacted flag of a wb_entry record body (wbcast/protocol.cpp's
// layout: clock, phase, lts, gts, compacted, ...).
bool wb_entry_is_stub(const BufferSlice& body) {
    codec::Reader r(body);
    r.u64();     // clock
    r.varint();  // phase
    r.u64();     // lts
    r.zigzag();
    r.u64();     // gts
    r.zigzag();
    return r.varint() != 0;
}

// Under steady load with no leader change, wbcast's WAL holds a wb_floor
// record per floor raise and no per-entry stub record; a replica restarted
// from it comes back with the stubs it had.
TEST(GcIndexWbcastTest, WalLogsFloorsNotStubs) {
    WalSet wals(6, "gc_index_wbcast_floor");
    Cluster c(durable_config(wals, ProtocolKind::wbcast, 13));
    traffic(c, milliseconds(2), milliseconds(600), milliseconds(1));
    c.run_for(milliseconds(900));
    expect_everything_compacted(c, ProtocolKind::wbcast);
    for (ProcessId p = 0; p < c.topo().num_replicas(); ++p) {
        const wal::Log log(wals.path(p), wal::SyncMode::off);
        std::size_t floors = 0;
        std::size_t stubs = 0;
        for (const wal::Record& r : log.recovered()) {
            if (r.type == wal::tag(wal::RecordType::wb_floor)) ++floors;
            if (r.type == wal::tag(wal::RecordType::wb_entry) &&
                wb_entry_is_stub(r.body))
                ++stubs;
        }
        EXPECT_GT(floors, 5u) << "replica " << p;
        EXPECT_EQ(stubs, 0u) << "replica " << p;
    }
    // A follower killed once everything is compacted replays every entry
    // back to a stub from its floor records alone.
    const ProcessId victim = c.topo().member(1, 1);
    auto& before = c.world().process_as<wbcast::WbcastReplica>(victim);
    const std::size_t entries = before.entry_count();
    ASSERT_EQ(before.compacted_count(), entries);
    c.world().crash(victim);
    wals.kill_and_reopen(victim);
    c.restart_replica(victim);
    auto& after = c.world().process_as<wbcast::WbcastReplica>(victim);
    EXPECT_EQ(after.entry_count(), entries);
    EXPECT_EQ(after.compacted_count(), entries);
}

// --- consensus-log prune spread over applies ---------------------------------

// The replica's consensus engine (ftskeen, fastcast), or nullptr.
const paxos::MultiPaxos* engine_of(Process* p) {
    for (; p != nullptr; p = p->wrapped()) {
        if (auto* r = dynamic_cast<ftskeen::FtSkeenReplica*>(p))
            return &r->paxos();
        if (auto* r = dynamic_cast<fastcast::FastCastReplica*>(p))
            return &r->paxos();
    }
    return nullptr;
}

struct PruneLedger {
    TimePoint until = 0;  // calls starting before this are watched
    std::size_t pruning_calls = 0;
    std::size_t over_budget = 0;
    std::string first_over;
};

// Wraps one replica and reads its engine's pruned_upto() and
// applied_upto() around every handler call: a call may prune at most
// MultiPaxos::prune_steps_per_apply slots for each slot it applied.
class PruneWatch final : public Process {
public:
    PruneWatch(ProcessId self, std::unique_ptr<Process> inner,
               PruneLedger& ledger)
        : self_(self), inner_(std::move(inner)), ledger_(ledger),
          engine_(engine_of(inner_.get())) {}

    void on_start(Context& ctx) override { inner_->on_start(ctx); }
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override {
        watch(ctx, "message", [&] { inner_->on_message(ctx, from, bytes); });
    }
    void on_timer(Context& ctx, TimerId id) override {
        watch(ctx, "timer", [&] { inner_->on_timer(ctx, id); });
    }
    Process* wrapped() override { return inner_.get(); }

private:
    template <class Call>
    void watch(Context& ctx, const char* kind, Call&& call) {
        const bool on = ctx.now() < ledger_.until;
        const std::uint64_t pruned0 = engine_->pruned_upto();
        const std::uint64_t applied0 = engine_->applied_upto();
        call();
        if (!on || engine_->pruned_upto() <= pruned0) return;
        const std::uint64_t pruned = engine_->pruned_upto() - pruned0;
        const std::uint64_t applied = engine_->applied_upto() - applied0;
        ++ledger_.pruning_calls;
        if (pruned <= paxos::MultiPaxos::prune_steps_per_apply * applied)
            return;
        if (ledger_.over_budget++ == 0)
            ledger_.first_over = "p" + std::to_string(self_) + "'s " + kind +
                                 " call at " + std::to_string(ctx.now()) +
                                 " ns pruned " + std::to_string(pruned) +
                                 " slots and applied " +
                                 std::to_string(applied);
    }

    ProcessId self_;
    std::unique_ptr<Process> inner_;
    PruneLedger& ledger_;
    const paxos::MultiPaxos* engine_;
};

class GcPruneTest : public ::testing::TestWithParam<ProtocolKind> {};

// A few thousand multicasts under GC: while load flows, no handler call
// prunes more than the per-apply constant per slot it applies (a GC round
// and its announce only set the applied floor). Once load stops, the next
// floor pays off the rest: within two GC intervals every member has
// pruned up to the applied floor the group had reached when load
// stopped, and a few intervals later every log is pruned to its apply
// point.
TEST_P(GcPruneTest, NoHandlerPrunesAWholeRound) {
    const ProtocolKind kind = GetParam();
    ClusterConfig cfg = index_config(kind, 11);
    cfg.trace_sends = false;
    const TimePoint load_end = milliseconds(1000);
    PruneLedger ledger;
    ledger.until = load_end;
    cfg.wrap_replica = [&ledger](ProcessId p, std::unique_ptr<Process> r) {
        return std::make_unique<PruneWatch>(p, std::move(r), ledger);
    };
    Cluster c(cfg);
    const auto engine = [&c](ProcessId p) {
        return engine_of(&c.world().process(p));
    };
    traffic(c, milliseconds(2), load_end, microseconds(250));
    std::map<GroupId, std::uint64_t> floor_at_end;
    c.world().at(load_end, [&] {
        for (const GroupId g : c.topo().all_groups())
            for (const ProcessId p : c.topo().members(g))
                floor_at_end[g] =
                    std::max(floor_at_end[g], engine(p)->prune_floor());
    });
    c.run_until(load_end + 2 * cfg.replica.gc_interval);
    for (const GroupId g : c.topo().all_groups()) {
        EXPECT_GT(floor_at_end[g], 0u) << "group " << g;
        for (const ProcessId p : c.topo().members(g))
            EXPECT_GE(engine(p)->pruned_upto(), floor_at_end[g])
                << "replica " << p;
    }
    EXPECT_GT(ledger.pruning_calls, 1000u);
    EXPECT_EQ(ledger.over_budget, 0u) << ledger.first_over;

    c.run_until(load_end + 6 * cfg.replica.gc_interval);
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(c.log().completed_count(), c.log().multicasts().size());
    EXPECT_GE(c.log().multicasts().size(), 3900u);
    for (ProcessId p = 0; p < c.topo().num_replicas(); ++p) {
        EXPECT_EQ(engine(p)->pruned_upto(), engine(p)->applied_upto())
            << "replica " << p;
        EXPECT_EQ(engine(p)->chosen_count(), 0u) << "replica " << p;
    }
}

INSTANTIATE_TEST_SUITE_P(ConsensusRows, GcPruneTest,
                         ::testing::Values(ProtocolKind::ftskeen,
                                           ProtocolKind::fastcast),
                         [](const auto& info) { return row_name(info.param); });

class GcIndexSnapshotTest : public ::testing::TestWithParam<ProtocolKind> {};

// A follower is cut off until the group's consensus log is pruned past
// it, so it heals by installing a peer's state snapshot.
TEST_P(GcIndexSnapshotTest, SeveredMemberHealsBySnapshot) {
    const ProtocolKind kind = GetParam();
    Cluster c(index_config(kind, 7));
    const ProcessId lagging = c.topo().member(0, 2);
    traffic(c, milliseconds(2), milliseconds(1200));
    c.world().at(milliseconds(150), [&] { c.world().sever_process(lagging); });
    c.world().at(milliseconds(800),
                 [&] { c.world().restore_process(lagging); });
    c.run_for(milliseconds(3000));
    EXPECT_GE(snapshots_sent_to(c, lagging), 1u);
    expect_everything_compacted(c, kind);
}

INSTANTIATE_TEST_SUITE_P(ConsensusRows, GcIndexSnapshotTest,
                         ::testing::Values(ProtocolKind::ftskeen,
                                           ProtocolKind::fastcast),
                         [](const auto& info) { return row_name(info.param); });

}  // namespace
}  // namespace wbam
