// A follower of a black-box row (ftskeen, fastcast) cut off from its
// leader for a few milliseconds under mixed single- and cross-group load.
// The lossy cut (sim::World::sever_link) drops what the leader sends
// meanwhile, consensus decisions included — what a kill -9 and restart
// does to the messages in flight to the victim — so the follower comes
// back with a gap in its consensus log, which Paxos fills again. It must
// still deliver its group's sequence: nothing skipped, nothing reordered.
// (wbcast assumes reliable channels between live processes; a restarted
// wbcast member resyncs through SYNC_REQ instead.)
//
// FastCast followers deliver up to the leader's DELIVER_FLOOR. A follower
// with a gap may hold the commit of a later message (larger gts) while the
// commit of an earlier one sits in the gap; delivering up to the floor
// anyway skipped the earlier message for good (seen in the fastcast kill
// drill of scripts/wbam_deploy.py). So a follower also waits for every
// pending proposal with a smaller timestamp, as the leader does.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace wbam {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::ProtocolKind;

class FollowerGapTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(FollowerGapTest, SeveredFollowerDeliversTheGroupSequence) {
    int runs = 0;
    int failed = 0;
    for (int start = 20; start < 120; start += 10) {
        for (const int outage : {3, 8, 20}) {
            ClusterConfig cfg;
            cfg.kind = GetParam();
            cfg.groups = 2;
            cfg.group_size = 3;
            cfg.clients = 2;
            cfg.seed = static_cast<std::uint64_t>(7 + start);
            cfg.delta = milliseconds(1);
            cfg.replica.heartbeat_interval = milliseconds(5);
            cfg.replica.suspect_timeout = seconds(10);  // no leader change
            cfg.replica.retry_interval = milliseconds(25);
            cfg.replica.gc_interval = milliseconds(50);
            cfg.client_retry = milliseconds(50);
            Cluster c(cfg);
            int i = 0;
            for (TimePoint t = milliseconds(1); t < milliseconds(200);
                 t += microseconds(300), ++i) {
                std::vector<GroupId> dests = i % 2 == 0
                                                 ? std::vector<GroupId>{0}
                                                 : std::vector<GroupId>{0, 1};
                c.multicast_at(t, i % 2, std::move(dests), Bytes{1, 2});
            }
            const ProcessId leader = c.topo().initial_leader(0);
            const ProcessId follower = c.topo().member(0, 1);
            c.world().at(milliseconds(start), [&c, leader, follower] {
                c.world().sever_link(leader, follower);
            });
            c.world().at(milliseconds(start + outage), [&c, leader, follower] {
                c.world().restore_link(leader, follower);
            });
            c.run_for(seconds(3));
            const auto result = c.check();
            ++runs;
            if (!result.ok() && ++failed == 1)
                ADD_FAILURE() << "cut at " << start << " ms for " << outage
                              << " ms: " << result.summary();
        }
    }
    EXPECT_EQ(failed, 0) << "of " << runs << " schedules";
}

INSTANTIATE_TEST_SUITE_P(
    ConsensusRows, FollowerGapTest,
    ::testing::Values(ProtocolKind::ftskeen, ProtocolKind::fastcast),
    [](const auto& info) {
        std::string name = harness::to_string(info.param);
        std::erase(name, '-');
        return name;
    });

}  // namespace
}  // namespace wbam
