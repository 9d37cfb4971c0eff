// Loopback integration tests for the TCP runtime: every protocol of the
// matrix runs as a 2-group x 3-replica cluster whose processes live in
// separate NetWorlds (one poll loop each) wired over real loopback TCP
// sockets on ephemeral ports — the in-process equivalent of the wbamd
// multi-process deployment. Deliveries are validated by the full
// specification checker. The four multicast protocols go through
// harness::LiveCluster; the fifth matrix row — the raw multi-Paxos engine
// the black-box baselines replicate over — runs as a 3-member RSM whose
// applied histories must agree byte-for-byte. A reconnect test severs
// every TCP connection mid-run and requires the workload to finish over
// re-dialled connections.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/live_cluster.hpp"
#include "paxos/multipaxos.hpp"

namespace wbam {
namespace {

using harness::LiveCluster;
using harness::LiveClusterConfig;
using harness::ProtocolKind;

// Wall-clock protocol knobs: fast enough to finish promptly, quiet enough
// not to trip failure handling on slow sanitizer runs.
LiveClusterConfig net_config(ProtocolKind kind, std::uint64_t seed) {
    LiveClusterConfig cfg;
    cfg.kind = kind;
    cfg.groups = 2;
    // Skeen's classic protocol assumes reliable singleton groups.
    cfg.group_size = kind == ProtocolKind::skeen ? 1 : 3;
    cfg.clients = 1;
    cfg.seed = seed;
    cfg.replica.heartbeat_interval = milliseconds(50);
    cfg.replica.suspect_timeout = seconds(30);  // no elections under load
    cfg.replica.retry_interval = milliseconds(200);
    cfg.client_retry = milliseconds(300);
    return cfg;
}

void run_protocol_over_loopback(ProtocolKind kind, std::uint64_t seed,
                                int shards = 0) {
    LiveClusterConfig cfg = net_config(kind, seed);
    cfg.net.shards = shards;
    LiveCluster c(cfg);
    constexpr int n = 12;
    for (int i = 0; i < n; ++i) {
        // Mixed destination sets exercise both the single-group path and
        // the cross-group timestamp exchange.
        const std::vector<GroupId> dests =
            i % 3 == 0 ? std::vector<GroupId>{0}
                       : (i % 3 == 1 ? std::vector<GroupId>{1}
                                     : std::vector<GroupId>{0, 1});
        c.multicast(0, dests, Bytes{static_cast<std::uint8_t>(i), 0x5a});
    }
    ASSERT_TRUE(c.await_completion(seconds(30)))
        << "only " << c.log_snapshot().completed_count() << "/" << n
        << " multicasts completed over loopback TCP";
    c.shutdown();
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(c.log_snapshot().completed_count(), static_cast<std::size_t>(n));
}

TEST(NetIntegrationTest, WbcastDeliversOverLoopbackTcp) {
    run_protocol_over_loopback(ProtocolKind::wbcast, 11);
}

TEST(NetIntegrationTest, SkeenDeliversOverLoopbackTcp) {
    run_protocol_over_loopback(ProtocolKind::skeen, 13);
}

TEST(NetIntegrationTest, FtskeenDeliversOverLoopbackTcp) {
    run_protocol_over_loopback(ProtocolKind::ftskeen, 17);
}

TEST(NetIntegrationTest, FastcastDeliversOverLoopbackTcp) {
    run_protocol_over_loopback(ProtocolKind::fastcast, 19);
}

// The same matrix with the transport sharded onto four event loops per
// NetWorld: connection affinity, cross-shard mailboxes, and the socket
// handoff path all engage, and the checker result must be unchanged.
TEST(NetIntegrationTest, WbcastDeliversAcrossFourShards) {
    run_protocol_over_loopback(ProtocolKind::wbcast, 31, /*shards=*/4);
}

TEST(NetIntegrationTest, SkeenDeliversAcrossFourShards) {
    run_protocol_over_loopback(ProtocolKind::skeen, 37, /*shards=*/4);
}

TEST(NetIntegrationTest, FtskeenDeliversAcrossFourShards) {
    run_protocol_over_loopback(ProtocolKind::ftskeen, 43, /*shards=*/4);
}

TEST(NetIntegrationTest, FastcastDeliversAcrossFourShards) {
    run_protocol_over_loopback(ProtocolKind::fastcast, 47, /*shards=*/4);
}

// Connection lifecycle: sever every established TCP connection mid-run;
// dials back off, reconnect, and the remaining workload must still
// complete and validate.
TEST(NetIntegrationTest, WbcastSurvivesDroppedConnections) {
    LiveCluster c(net_config(ProtocolKind::wbcast, 29));
    constexpr int n = 10;
    for (int i = 0; i < n / 2; ++i) c.multicast(0, {0, 1});
    ASSERT_TRUE(c.await_completion(seconds(30)));
    c.drop_net_connections();
    for (int i = 0; i < n / 2; ++i) c.multicast(0, {0, 1});
    ASSERT_TRUE(c.await_completion(seconds(30)))
        << "workload did not recover after dropped connections";
    c.shutdown();
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(c.log_snapshot().completed_count(), static_cast<std::size_t>(n));
}

// --- the fifth matrix row: raw multi-Paxos over TCP --------------------------

// Minimal RSM host (the net twin of retention_test's GcPaxosHost): applied
// commands are the replicated state.
class NetPaxosHost final : public Process {
public:
    NetPaxosHost(std::vector<ProcessId> members, int quorum) {
        paxos::PaxosConfig cfg;
        cfg.retry_interval = milliseconds(100);
        engine = std::make_unique<paxos::MultiPaxos>(
            std::move(members), quorum,
            [this](Context&, std::uint64_t slot, const paxos::Command& cmd) {
                const std::lock_guard<std::mutex> guard(mutex);
                applied.emplace_back(slot, cmd.data.to_bytes());
            },
            cfg);
    }

    void on_start(Context& c) override {
        engine->start(c);
        tick = c.set_timer(milliseconds(100));
    }
    void on_message(Context& c, ProcessId from,
                    const BufferSlice& bytes) override {
        codec::EnvelopeView env(bytes);
        engine->handle_message(c, from, env);
    }
    void on_timer(Context& c, TimerId id) override {
        if (id != tick) return;
        tick = c.set_timer(milliseconds(100));
        engine->on_tick(c);
    }

    std::vector<std::pair<std::uint64_t, Bytes>> applied_snapshot() const {
        const std::lock_guard<std::mutex> guard(mutex);
        return applied;
    }

    std::unique_ptr<paxos::MultiPaxos> engine;

private:
    mutable std::mutex mutex;
    std::vector<std::pair<std::uint64_t, Bytes>> applied;
    TimerId tick = invalid_timer;
};

void run_paxos_over_loopback(std::uint64_t seed, int shards) {
    constexpr int n = 3;
    const Topology topo(1, n, 0);
    std::vector<ProcessId> members{0, 1, 2};
    std::vector<NetPaxosHost*> hosts;
    net::NetConfig base;
    base.shards = shards;
    const auto worlds = harness::make_loopback_worlds(
        topo, seed,
        [&](ProcessId) -> std::unique_ptr<Process> {
            auto host = std::make_unique<NetPaxosHost>(members, n / 2 + 1);
            hosts.push_back(host.get());
            return host;
        },
        base);
    for (const auto& w : worlds) w->start();

    constexpr int cmds = 25;
    for (int i = 0; i < cmds; ++i) {
        worlds[0]->run_on(0, [&hosts, i](Context& ctx) {
            hosts[0]->engine->submit(
                ctx, paxos::Command{static_cast<MsgId>(i + 1),
                                    Bytes{static_cast<std::uint8_t>(i),
                                          static_cast<std::uint8_t>(i >> 8)}});
        });
    }
    // Wait (bounded) until every member applied all commands.
    bool done = false;
    for (int spin = 0; spin < 1500 && !done; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        done = true;
        for (const NetPaxosHost* h : hosts)
            done &= h->applied_snapshot().size() == cmds;
    }
    for (const auto& w : worlds) w->shutdown();
    ASSERT_TRUE(done) << "paxos group did not converge over loopback TCP";
    const auto reference = hosts[0]->applied_snapshot();
    ASSERT_EQ(reference.size(), static_cast<std::size_t>(cmds));
    for (const NetPaxosHost* h : hosts)
        EXPECT_EQ(h->applied_snapshot(), reference);
}

TEST(NetIntegrationTest, PaxosGroupChoosesIdenticalLogOverLoopbackTcp) {
    run_paxos_over_loopback(41, /*shards=*/0);
}

TEST(NetIntegrationTest, PaxosGroupChoosesIdenticalLogAcrossFourShards) {
    run_paxos_over_loopback(59, /*shards=*/4);
}

}  // namespace
}  // namespace wbam
