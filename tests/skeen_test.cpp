// Tests for Skeen's protocol (Figure 1): exact collision-free latency 2δ,
// the Figure 2 convoy effect (worst case 4δ), and the full atomic
// multicast specification over randomized workloads.
#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "skeen/skeen.hpp"

namespace wbam {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::ProtocolKind;

constexpr Duration delta = milliseconds(1);

ClusterConfig skeen_config(int groups, int clients, std::uint64_t seed = 1) {
    ClusterConfig cfg;
    cfg.kind = ProtocolKind::skeen;
    cfg.groups = groups;
    cfg.group_size = 1;
    cfg.clients = clients;
    cfg.seed = seed;
    cfg.delta = delta;
    return cfg;
}

Duration latency_of(const Cluster& c, MsgId id) {
    const auto& rec = c.log().multicasts().at(id);
    EXPECT_TRUE(rec.partially_delivered());
    return rec.partially_delivered() ? rec.delivery_latency() : Duration{-1};
}

TEST(SkeenTest, CollisionFreeLatencyIsTwoDelta) {
    Cluster c(skeen_config(2, 1));
    const MsgId id = c.multicast_at(0, 0, {0, 1});
    c.run_for(milliseconds(20));
    EXPECT_EQ(latency_of(c, id), 2 * delta);
    EXPECT_TRUE(c.check().ok()) << c.check().summary();
}

TEST(SkeenTest, SingleGroupDeliversInOneDelta) {
    // With one destination group the only remote hop is MULTICAST; the
    // PROPOSE to self is immediate.
    Cluster c(skeen_config(3, 1));
    const MsgId id = c.multicast_at(0, 0, {1});
    c.run_for(milliseconds(20));
    EXPECT_EQ(latency_of(c, id), delta);
}

TEST(SkeenTest, DeliversToAllDestinationGroupsOnly) {
    Cluster c(skeen_config(4, 1));
    const MsgId id = c.multicast_at(0, 0, {0, 2});
    c.run_for(milliseconds(20));
    const auto& rec = c.log().multicasts().at(id);
    ASSERT_EQ(rec.first_delivery.size(), 2u);
    EXPECT_TRUE(rec.first_delivery.count(0));
    EXPECT_TRUE(rec.first_delivery.count(2));
    // Processes of groups 1 and 3 delivered nothing.
    EXPECT_EQ(c.log().deliveries().count(1), 0u);
    EXPECT_EQ(c.log().deliveries().count(3), 0u);
}

TEST(SkeenTest, ConvoyEffectDelaysDeliveryToFourDelta) {
    // Figure 2: m' arrives at p0 just before m commits there, gets a local
    // timestamp below m's global timestamp, and blocks m for another 2δ.
    Cluster c(skeen_config(2, 2));
    const Duration eps = microseconds(10);
    const ProcessId convoy_client = c.topo().client(1);
    c.world().set_link_override(convoy_client, 0, eps);      // ~0 to p0
    c.world().set_link_override(convoy_client, 1, delta);    // exactly δ to p1
    // Warm p1's clock so that m's global timestamp exceeds p0's clock when
    // m' arrives (the Figure 2 configuration).
    c.multicast_at(0, 0, {1});
    const TimePoint t1 = milliseconds(5);
    const MsgId m = c.multicast_at(t1, 0, {0, 1});
    // m commits at p0 at t1 + 2δ; m' must arrive at p0 immediately before,
    // picking up a local timestamp below gts(m).
    const MsgId m2 = c.multicast_at(t1 + 2 * delta - 2 * eps, 1, {0, 1});
    c.run_for(milliseconds(50));
    // m is blocked at group 0 until m' commits there: ~4δ.
    const auto& rec = c.log().multicasts().at(m);
    ASSERT_TRUE(rec.partially_delivered());
    const Duration m_at_g0 = rec.first_delivery.at(0) - rec.multicast_at;
    EXPECT_GE(m_at_g0, 4 * delta - 3 * eps);
    EXPECT_LE(m_at_g0, 4 * delta);
    // Group 1 was not affected: m delivered there at 2δ.
    EXPECT_EQ(rec.first_delivery.at(1) - rec.multicast_at, 2 * delta);
    EXPECT_TRUE(c.check().ok()) << c.check().summary();
    (void)m2;
}

TEST(SkeenTest, ConcurrentConflictingMessagesAgreeOnOrder) {
    Cluster c(skeen_config(2, 2));
    // Two clients multicast to the same two groups simultaneously.
    c.multicast_at(0, 0, {0, 1});
    c.multicast_at(0, 1, {0, 1});
    c.run_for(milliseconds(50));
    EXPECT_TRUE(c.check().ok()) << c.check().summary();
    EXPECT_EQ(c.log().total_deliveries(), 4u);
}

TEST(SkeenTest, DisjointDestinationsOrderedIndependently) {
    Cluster c(skeen_config(4, 2));
    const MsgId a = c.multicast_at(0, 0, {0, 1});
    const MsgId b = c.multicast_at(0, 1, {2, 3});
    c.run_for(milliseconds(50));
    EXPECT_EQ(latency_of(c, a), 2 * delta);
    EXPECT_EQ(latency_of(c, b), 2 * delta);
    EXPECT_TRUE(c.check().ok()) << c.check().summary();
}

TEST(SkeenTest, GenuinenessOnlyDestinationsParticipate) {
    ClusterConfig cfg = skeen_config(5, 1);
    cfg.trace_sends = true;
    Cluster c(cfg);
    c.multicast_at(0, 0, {1, 3});
    c.run_for(milliseconds(50));
    EXPECT_TRUE(c.check().ok()) << c.check().summary();
    EXPECT_TRUE(c.check_genuine().ok()) << c.check_genuine().summary();
}

TEST(SkeenTest, ClientRetryDoesNotDuplicateDelivery) {
    ClusterConfig cfg = skeen_config(2, 1);
    cfg.client_retry = milliseconds(5);  // aggressive retries
    Cluster c(cfg);
    c.multicast_at(0, 0, {0, 1});
    // Delay the deliver-acks so the client re-sends several times.
    c.run_for(milliseconds(100));
    EXPECT_TRUE(c.check().ok()) << c.check().summary();
    EXPECT_EQ(c.log().total_deliveries(), 2u);  // Integrity held
}

// Input no correct client or replica sends is dropped, not asserted on:
// a client MULTICAST that reaches a non-destination, and PROPOSEs that
// could complete a message's proposals without this process's own (the
// message is not addressed to us, or the proposing group is not one of
// its destinations). Real traffic around them still satisfies the
// specification, and nobody delivers the forged messages.
TEST(SkeenTest, MisroutedRequestsAndProposalsAreDropped) {
    Cluster c(skeen_config(3, 1));
    const ProcessId client = c.topo().client(0);
    const ProcessId p0 = c.topo().member(0, 0);
    const ProcessId p2 = c.topo().member(2, 0);
    auto forged = [client](std::uint32_t seq, std::vector<GroupId> dests) {
        return make_app_message(make_msg_id(client, 1000 + seq),
                                std::move(dests), Bytes{0x66});
    };
    auto propose = [](const AppMessage& m, GroupId from_group) {
        return codec::encode_envelope(
            codec::Module::proto,
            static_cast<std::uint8_t>(skeen::MsgType::propose), m.id,
            skeen::ProposeMsg{m, from_group, Timestamp{1, from_group}});
    };
    const MsgId before = c.multicast_at(0, 0, {0, 2});
    c.world().at(milliseconds(5), [&] {
        c.world().send_from(client, p2,
                            encode_multicast_request(forged(0, {0})));
        c.world().send_from(p0, p2, propose(forged(1, {0}), 0));
        c.world().send_from(p0, p2, propose(forged(2, {2}), 0));
    });
    const MsgId after = c.multicast_at(milliseconds(10), 0, {0, 1, 2});
    c.run_for(milliseconds(100));

    EXPECT_TRUE(c.check().ok()) << c.check().summary();
    EXPECT_EQ(c.log().total_deliveries(), 5u);
    EXPECT_TRUE(c.client(0).fully_acked(before));
    EXPECT_TRUE(c.client(0).fully_acked(after));
}

// Property sweep: random workloads across seeds and shapes must satisfy
// the full specification.
struct SkeenSweepParam {
    std::uint64_t seed;
    int groups;
    int clients;
    int messages;
    int max_dests;
};

class SkeenSweep : public ::testing::TestWithParam<SkeenSweepParam> {};

TEST_P(SkeenSweep, SpecificationHolds) {
    const auto p = GetParam();
    ClusterConfig cfg = skeen_config(p.groups, p.clients, p.seed);
    cfg.make_delays = [] {
        return std::make_unique<sim::JitterDelay>(microseconds(200),
                                                  microseconds(1800));
    };
    cfg.trace_sends = true;
    Cluster c(cfg);
    Rng rng(p.seed * 31 + 7);
    for (int i = 0; i < p.messages; ++i) {
        const auto t = static_cast<TimePoint>(rng.next_below(
            static_cast<std::uint64_t>(milliseconds(40))));
        const int client = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(p.clients)));
        const int ndest = 1 + static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(p.max_dests)));
        std::vector<GroupId> dests;
        for (int d = 0; d < ndest; ++d)
            dests.push_back(static_cast<GroupId>(rng.next_below(
                static_cast<std::uint64_t>(p.groups))));
        c.multicast_at(t, client, std::move(dests), Bytes{0xab});
    }
    c.run_for(milliseconds(400));
    EXPECT_TRUE(c.check().ok()) << c.check().summary();
    EXPECT_TRUE(c.check_genuine().ok()) << c.check_genuine().summary();
}

INSTANTIATE_TEST_SUITE_P(
    Random, SkeenSweep,
    ::testing::Values(SkeenSweepParam{1, 2, 2, 20, 2},
                      SkeenSweepParam{2, 3, 3, 40, 3},
                      SkeenSweepParam{3, 5, 4, 60, 5},
                      SkeenSweepParam{4, 8, 6, 80, 4},
                      SkeenSweepParam{5, 4, 2, 50, 2},
                      SkeenSweepParam{6, 10, 8, 100, 10},
                      SkeenSweepParam{7, 6, 5, 70, 3},
                      SkeenSweepParam{8, 2, 8, 120, 2}));

}  // namespace
}  // namespace wbam
