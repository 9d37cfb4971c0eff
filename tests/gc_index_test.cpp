// Tests for the GC compaction index (multicast/gc_floor.hpp): the
// CompactionQueue itself, and the invariant every protocol row must keep
// across the events that rebuild its entry table wholesale — wbcast's
// NEWLEADER recompute, NEW_STATE install and WAL replay, ftskeen/fastcast
// snapshot install and WAL replay. A GC round only looks at the queue, so
// a delivered entry that never reached it would keep its payload forever.
// After each event the cluster runs more traffic and quiesces; then every
// replica must hold nothing but stubs (every entry was delivered by the
// whole group, so every entry is at or below the group floor).
#include <gtest/gtest.h>

#include <filesystem>
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

// One WAL per replica, reopenable across a simulated kill. Declared before
// the Cluster: replicas hold raw pointers into `logs`.
struct WalSet {
    std::string dir;
    std::vector<std::unique_ptr<wal::Log>> logs;

    WalSet(int replicas, const std::string& tag) {
        static int counter = 0;
        dir = testing::TempDir() + "gc_index_" + tag + "_" +
              std::to_string(++counter);
        std::filesystem::create_directories(dir);
        for (int p = 0; p < replicas; ++p)
            logs.push_back(std::make_unique<wal::Log>(
                path(p), wal::SyncMode::group_commit));
    }
    ~WalSet() {
        logs.clear();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
    std::string path(ProcessId p) const {
        return dir + "/p" + std::to_string(p) + ".wal";
    }
    void kill_and_reopen(ProcessId p) {
        auto& log = logs[static_cast<std::size_t>(p)];
        log->discard_pending();
        log.reset();
        log = std::make_unique<wal::Log>(path(p), wal::SyncMode::group_commit);
    }
};

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
void traffic(Cluster& c, TimePoint from, TimePoint to) {
    int i = 0;
    for (TimePoint t = from; t < to; t += milliseconds(5), ++i) {
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

std::string row_name(ProtocolKind kind) {
    switch (kind) {
        case ProtocolKind::wbcast: return "Wbcast";
        case ProtocolKind::ftskeen: return "FtSkeen";
        case ProtocolKind::fastcast: return "FastCast";
        default: return "Other";
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
    cfg.tune_replica = [&wals](ProcessId p, ReplicaConfig& rc) {
        rc.wal = wals.logs[static_cast<std::size_t>(p)].get();
    };
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
    WalSet wals(6, "follower_" + row_name(kind));
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
    WalSet wals(6, "leader_" + row_name(kind));
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

INSTANTIATE_TEST_SUITE_P(AllRows, GcIndexTest,
                         ::testing::Values(ProtocolKind::wbcast,
                                           ProtocolKind::ftskeen,
                                           ProtocolKind::fastcast),
                         [](const auto& info) { return row_name(info.param); });

// With elections off, a restarted wbcast leader resumes leading straight
// from its WAL replay: no NEW_STATE or NEWLEADER round rebuilds its table
// afterwards, so the replay's rebuild alone must queue its delivered past.
TEST(GcIndexWbcastTest, LeaderResumesFromWalReplay) {
    WalSet wals(6, "wbcast_resume");
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
