// Deterministic crash-recovery schedules over the simulator: a replica is
// killed mid-run, its replacement replays the per-process write-ahead log
// (ReplicaConfig::wal) and rejoins via the floor/catch-up machinery, and
// the full multicast specification is checked over the combined pre- and
// post-crash run. Covers follower and leader crashes across all three
// fault-tolerant protocols, a kill -9 inside the group-commit window
// (queued-but-unfsynced records die with the process, yet no acknowledged
// delivery may be lost), a torn WAL tail written by the dying process,
// and byte-identical state reconstruction for the black-box protocols.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
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

// One WAL file per replica, owned by the test so a log can be closed and
// reopened on the same path across a simulated kill/restart. Lives on the
// stack ABOVE the Cluster: replicas hold raw pointers into `logs`.
struct WalSet {
    std::string dir;
    std::vector<std::unique_ptr<wal::Log>> logs;

    WalSet(int num_replicas, const std::string& tag, wal::SyncMode mode) {
        static int counter = 0;
        dir = testing::TempDir() + "crash_restart_" + tag + "_" +
              std::to_string(++counter);
        // A run that died before its destructor (a crash) leaves WAL files
        // here; a fresh replica must never replay them as its own.
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        for (int p = 0; p < num_replicas; ++p)
            logs.push_back(std::make_unique<wal::Log>(path(p), mode));
    }
    ~WalSet() {
        logs.clear();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    std::string path(ProcessId p) const {
        return dir + "/p" + std::to_string(p) + ".wal";
    }

    // The kill -9 + reboot of process p: drop anything the dying process
    // appended but never committed, close the file, and open a fresh Log
    // that recovers the durable prefix. The caller hands the new log to
    // the replacement replica via Cluster::restart_replica + tune_replica.
    void kill_and_reopen(ProcessId p) {
        logs[static_cast<std::size_t>(p)]->discard_pending();
        logs[static_cast<std::size_t>(p)].reset();
        logs[static_cast<std::size_t>(p)] = std::make_unique<wal::Log>(
            path(p), wal::SyncMode::group_commit);
    }

    wal::Log* log(ProcessId p) { return logs[static_cast<std::size_t>(p)].get(); }
};

ClusterConfig durable_config(WalSet& wals, ProtocolKind kind,
                             std::uint64_t seed = 1) {
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
    cfg.tune_replica = [&wals](ProcessId p, ReplicaConfig& rc) {
        rc.wal = wals.log(p);
    };
    return cfg;
}

// Gtest parameter names must be alphanumeric; to_string() spellings
// ("FT-Skeen") are not.
std::string param_name(ProtocolKind kind) {
    switch (kind) {
        case ProtocolKind::skeen: return "Skeen";
        case ProtocolKind::ftskeen: return "FtSkeen";
        case ProtocolKind::fastcast: return "FastCast";
        case ProtocolKind::wbcast: return "Wbcast";
    }
    return "Unknown";
}

void expect_spec_ok(const Cluster& c) {
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    const auto genuine = c.check_genuine();
    EXPECT_TRUE(genuine.ok()) << genuine.summary();
}

class CrashRestartTest : public ::testing::TestWithParam<ProtocolKind> {};

// A follower is killed mid-workload and restarted from its WAL while
// traffic keeps flowing. The restarted replica must replay its durable
// state, catch up on what it missed, and (being correct again) satisfy
// Termination: it delivers every message addressed to its group.
TEST_P(CrashRestartTest, FollowerKilledAndRestartedMidRun) {
    WalSet wals(6, "follower", wal::SyncMode::group_commit);
    Cluster c(durable_config(wals, GetParam()));
    const ProcessId victim = c.topo().member(0, 1);  // not the initial leader

    Rng rng(17);
    testutil::random_workload(c, rng, 30, milliseconds(400), 2);
    c.world().at(milliseconds(150), [&] { c.world().crash(victim); });
    c.world().at(milliseconds(250), [&] {
        wals.kill_and_reopen(victim);
        // The replacement must find a non-empty durable history to replay
        // (150ms of traffic passed through the victim before the kill).
        EXPECT_GT(wals.log(victim)->stats().records_recovered, 0u);
        c.restart_replica(victim);
    });
    c.run_for(milliseconds(1500));

    EXPECT_FALSE(c.world().is_crashed(victim));
    expect_spec_ok(c);
    // Every completed multicast addressed to group 0 reached the restarted
    // replica (pre-crash, by replay, or by catch-up).
    EXPECT_GT(c.log().deliveries().at(victim).size(), 0u);
}

// The initial leader of group 0 is kill -9'd: records it appended in the
// current group-commit window but never fsynced are lost with it. The
// durability ordering (records committed before any handler send leaves,
// acks included) means anything a client saw acknowledged was already
// durable somewhere — after the leader restarts from its WAL, every
// multicast that was fully acknowledged at kill time must still appear in
// the restarted leader's delivery sequence.
TEST_P(CrashRestartTest, LeaderKilledDuringGroupCommitLosesNoAckedDelivery) {
    WalSet wals(6, "leader", wal::SyncMode::group_commit);
    Cluster c(durable_config(wals, GetParam(), 5));
    const ProcessId leader = c.topo().initial_leader(0);

    std::vector<MsgId> ids;
    for (int i = 0; i < 20; ++i)
        ids.push_back(c.multicast_at(milliseconds(4 * i), 0,
                                     i % 3 == 0 ? std::vector<GroupId>{0}
                                                : std::vector<GroupId>{0, 1}));
    std::vector<MsgId> acked_at_kill;
    c.world().at(milliseconds(60), [&] {
        // Only messages already sent can be genuinely acked: fully_acked
        // is vacuously true for a multicast still waiting on its schedule.
        for (std::size_t i = 0; i < ids.size(); ++i)
            if (4 * i < 60 && c.client(0).fully_acked(ids[i]))
                acked_at_kill.push_back(ids[i]);
        c.world().crash(leader);
    });
    c.world().at(milliseconds(200), [&] {
        wals.kill_and_reopen(leader);
        c.restart_replica(leader);
    });
    c.run_for(milliseconds(2000));

    expect_spec_ok(c);
    EXPECT_GT(acked_at_kill.size(), 0u);  // the schedule must ack some pre-kill
    std::unordered_set<MsgId> delivered_at_leader;
    for (const auto& ev : c.log().deliveries().at(leader))
        delivered_at_leader.insert(ev.msg);
    for (const MsgId id : acked_at_kill)
        EXPECT_TRUE(delivered_at_leader.count(id))
            << "acked multicast " << id
            << " missing from the restarted leader's deliveries";
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CrashRestartTest,
                         ::testing::Values(ProtocolKind::wbcast,
                                           ProtocolKind::ftskeen,
                                           ProtocolKind::fastcast),
                         [](const auto& info) { return param_name(info.param); });

// A crash can tear the WAL mid-frame. The dying follower's file gets a
// garbage partial frame appended; the replacement must truncate it away,
// replay the clean prefix and rejoin as if the tail had never existed.
TEST(CrashRestartWalTest, TornWalTailIsTruncatedOnRestart) {
    WalSet wals(6, "torn", wal::SyncMode::group_commit);
    Cluster c(durable_config(wals, ProtocolKind::wbcast, 9));
    const ProcessId victim = c.topo().member(1, 2);

    Rng rng(23);
    testutil::random_workload(c, rng, 24, milliseconds(300), 2);
    c.world().at(milliseconds(120), [&] { c.world().crash(victim); });
    c.world().at(milliseconds(220), [&] {
        // Close the old log, then smear a torn frame onto the file before
        // the replacement opens it: a plausible length prefix promising
        // more bytes than exist.
        wals.logs[static_cast<std::size_t>(victim)]->discard_pending();
        wals.logs[static_cast<std::size_t>(victim)].reset();
        std::FILE* f = std::fopen(wals.path(victim).c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const unsigned char torn[] = {0x80, 0x00, 0x00, 0x00, 0xde, 0xad};
        std::fwrite(torn, 1, sizeof torn, f);
        std::fclose(f);
        wals.logs[static_cast<std::size_t>(victim)] =
            std::make_unique<wal::Log>(wals.path(victim),
                                       wal::SyncMode::group_commit);
        EXPECT_EQ(wals.log(victim)->stats().truncated_bytes, sizeof torn);
        EXPECT_GT(wals.log(victim)->stats().records_recovered, 0u);
        c.restart_replica(victim);
    });
    c.run_for(milliseconds(1500));
    expect_spec_ok(c);
}

// Strongest recovery check for the black-box protocols: quiesce, snapshot
// the full replica state (clock + every entry, nothing stripped), kill
// the replica, restart it from the WAL with no intervening traffic, and
// require the replayed state to be BYTE-IDENTICAL to the pre-crash
// snapshot. Retention is disabled so replay reconstructs the complete
// history rather than a pruned one.
class StateReplayTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(StateReplayTest, RestartedReplicaStateIsByteIdentical) {
    WalSet wals(6, "snap", wal::SyncMode::group_commit);
    ClusterConfig cfg = durable_config(wals, GetParam(), 3);
    cfg.replica.gc_enabled = false;
    Cluster c(cfg);
    const ProcessId victim = c.topo().member(0, 2);

    Rng rng(31);
    testutil::random_workload(c, rng, 16, milliseconds(200), 2);
    c.run_for(milliseconds(900));  // quiesce: every multicast settled

    const auto snapshot_of = [&]() -> Bytes {
        if (GetParam() == ProtocolKind::ftskeen)
            return c.world()
                .process_as<ftskeen::FtSkeenReplica>(victim)
                .state_snapshot(bottom_ts);
        return c.world()
            .process_as<fastcast::FastCastReplica>(victim)
            .state_snapshot(bottom_ts);
    };
    const Bytes before = snapshot_of();
    EXPECT_FALSE(before.empty());

    c.world().crash(victim);
    wals.kill_and_reopen(victim);
    c.restart_replica(victim);
    c.run_for(milliseconds(400));  // replay + re-sync, no new traffic

    const Bytes after = snapshot_of();
    EXPECT_EQ(before, after)
        << "replayed state diverges from the pre-crash state ("
        << before.size() << " vs " << after.size() << " bytes)";
    expect_spec_ok(c);
}

INSTANTIATE_TEST_SUITE_P(BlackBoxProtocols, StateReplayTest,
                         ::testing::Values(ProtocolKind::ftskeen,
                                           ProtocolKind::fastcast),
                         [](const auto& info) { return param_name(info.param); });

}  // namespace
}  // namespace wbam
