// A wbcast leader change in which the new leader adopts payload stubs it
// still held in full. The old leader's last GC round compacts entries
// at p2 but its prune to p1 is delayed past the old leader's crash, so
// p1's NEWLEADER recompute takes those entries as stubs from p2's ack.
// The recompute replaces the entry table wholesale; the compaction queue
// rebuilt from it must count the adopted stubs (compacted_count(), and
// the stub summary a catch-up server consults), or the new leader's
// count falls below its followers'.
#include <gtest/gtest.h>

#include "test_util.hpp"
#include "wbcast/protocol.hpp"

namespace wbam {
namespace {

TEST(StubAdoptionTest, NewLeaderCountsTheStubsItAdopts) {
    harness::ClusterConfig cfg;
    cfg.kind = harness::ProtocolKind::wbcast;
    cfg.groups = 1;
    cfg.group_size = 3;
    cfg.clients = 1;
    cfg.seed = 3;
    cfg.delta = milliseconds(1);
    cfg.replica.heartbeat_interval = milliseconds(5);
    cfg.replica.suspect_timeout = milliseconds(20);
    cfg.replica.retry_interval = milliseconds(25);
    cfg.replica.gc_interval = milliseconds(50);
    cfg.client_retry = milliseconds(50);
    harness::Cluster c(cfg);
    for (TimePoint t = milliseconds(2); t < milliseconds(600);
         t += milliseconds(5))
        c.multicast_at(t, 0, {0}, Bytes{1, 2});
    // p0 leads and runs a GC round every 50 ms from boot.
    const TimePoint gc_round = milliseconds(100);
    c.world().at(gc_round - microseconds(500), [&c] {
        c.world().set_link_override(0, 1, milliseconds(300));
    });
    c.world().at(gc_round + microseconds(100), [&c] { c.world().crash(0); });
    c.run_for(seconds(2));

    auto& new_leader = c.world().process_as<wbcast::WbcastReplica>(1);
    auto& follower = c.world().process_as<wbcast::WbcastReplica>(2);
    ASSERT_EQ(new_leader.status(), wbcast::Status::leader);
    // The dead p0 pins the floor from here on, so these are exactly the
    // stubs of p0's last round, shared through the recompute.
    EXPECT_GT(follower.compacted_count(), 0u);
    EXPECT_EQ(new_leader.compacted_count(), follower.compacted_count());
}

}  // namespace
}  // namespace wbam
