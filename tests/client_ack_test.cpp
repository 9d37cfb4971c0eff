// The client-ack rule (multicast/client_ack.hpp): a replica acks a
// delivery iff a client sent it the request. Covers the steady state (one
// DELIVER_ACK per (op, destination group) on every protocol row), the two
// resend branches (a member that already delivered re-acks from the
// bitmap; a member asked before delivering acks at delivery), a
// WAL-restarted replica, behind NodeShim and through
// Cluster::restart_replica (replay acks nobody, a resend is re-acked from
// the bitmap the replica rebuilt while replaying its WAL), and the paged
// bitmap itself.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ctrl/bench_plane.hpp"
#include "harness/cluster.hpp"
#include "multicast/client_ack.hpp"
#include "sim/network.hpp"
#include "wal/log.hpp"
#include "wal/records.hpp"

namespace wbam {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::ProtocolKind;

std::string param_name(ProtocolKind kind) {
    switch (kind) {
        case ProtocolKind::skeen: return "Skeen";
        case ProtocolKind::ftskeen: return "FtSkeen";
        case ProtocolKind::fastcast: return "FastCast";
        case ProtocolKind::wbcast: return "Wbcast";
    }
    return "Unknown";
}

bool is_deliver_ack(const sim::SendRecord& rec) {
    return rec.module == static_cast<std::uint8_t>(codec::Module::client) &&
           rec.type == static_cast<std::uint8_t>(ClientMsgType::deliver_ack);
}

bool is_request(const sim::SendRecord& rec) {
    return rec.module == static_cast<std::uint8_t>(codec::Module::client) &&
           rec.type == static_cast<std::uint8_t>(ClientMsgType::multicast);
}

// Every DELIVER_ACK a replica sent for `id` (dropped ones included: the
// trace records what left the sender).
std::vector<sim::SendRecord> acks_for(Cluster& c, MsgId id) {
    std::vector<sim::SendRecord> out;
    for (const sim::SendRecord& rec : c.world().send_trace())
        if (is_deliver_ack(rec) && rec.about == id) out.push_back(rec);
    return out;
}

TimePoint delivered_at(const Cluster& c, ProcessId p, MsgId id) {
    const auto it = c.log().deliveries().find(p);
    if (it == c.log().deliveries().end()) return -1;
    for (const DeliveryEvent& ev : it->second)
        if (ev.msg == id) return ev.at;
    return -1;
}

ClusterConfig fault_config(ProtocolKind kind) {
    ClusterConfig cfg;
    cfg.kind = kind;
    cfg.groups = 2;
    cfg.group_size = 3;
    cfg.clients = 1;
    cfg.delta = milliseconds(1);
    cfg.replica.heartbeat_interval = milliseconds(5);
    cfg.replica.suspect_timeout = milliseconds(20);
    cfg.replica.retry_interval = milliseconds(25);
    cfg.client_retry = milliseconds(50);
    cfg.trace_sends = true;
    return cfg;
}

// --- (a) steady state -------------------------------------------------------

class SteadyStateAckTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SteadyStateAckTest, OneAckPerOpAndDestinationGroup) {
    ClusterConfig cfg;
    cfg.kind = GetParam();
    cfg.groups = 3;
    cfg.group_size = GetParam() == ProtocolKind::skeen ? 1 : 3;
    cfg.clients = 2;
    cfg.trace_sends = true;
    Cluster c(cfg);

    // Single-group and cross-group ops, from both clients.
    const std::vector<std::vector<GroupId>> shapes = {
        {1}, {0, 2}, {2}, {0, 1, 2}, {0}};
    std::vector<std::pair<MsgId, std::vector<GroupId>>> ops;
    for (int i = 0; i < 30; ++i) {
        const auto& dests = shapes[static_cast<std::size_t>(i) % shapes.size()];
        ops.emplace_back(
            c.multicast_at(milliseconds(2 * i), i % 2, dests, Bytes{0x42}),
            dests);
    }
    c.run_for(milliseconds(300));  // under client_retry: no resend fires

    const auto result = c.check();
    ASSERT_TRUE(result.ok()) << result.summary();
    std::size_t requests = 0, expected_acks = 0;
    for (const auto& [id, dests] : ops) {
        std::map<GroupId, int> per_group;
        for (const sim::SendRecord& rec : acks_for(c, id)) {
            EXPECT_EQ(rec.to, msg_id_client(id));
            EXPECT_EQ(rec.from, c.topo().initial_leader(c.topo().group_of(rec.from)))
                << "ack from a replica the client never asked";
            ++per_group[c.topo().group_of(rec.from)];
        }
        for (const GroupId g : dests)
            EXPECT_EQ(per_group[g], 1) << "op " << id << " group " << g;
        EXPECT_EQ(per_group.size(), dests.size());
        expected_acks += dests.size();
    }
    std::size_t acks = 0;
    for (const sim::SendRecord& rec : c.world().send_trace()) {
        if (is_deliver_ack(rec)) ++acks;
        if (is_request(rec) && c.topo().is_client(rec.from)) ++requests;
    }
    EXPECT_EQ(acks, expected_acks);
    EXPECT_EQ(requests, expected_acks);  // first attempts only
    EXPECT_EQ(c.client(0).pending_count(), 0u);
    EXPECT_EQ(c.client(1).pending_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SteadyStateAckTest,
                         ::testing::Values(ProtocolKind::wbcast,
                                           ProtocolKind::skeen,
                                           ProtocolKind::ftskeen,
                                           ProtocolKind::fastcast),
                         [](const auto& info) { return param_name(info.param); });

// --- (b), (c) the resend path ----------------------------------------------

class ResendAckTest : public ::testing::TestWithParam<ProtocolKind> {};

// The addressee delivers, but its ack is lost (its link to the client is
// severed at the moment it delivers). The client's resend reaches every
// member; the followers delivered long before it arrives, so only the
// bitmap branch can answer it.
TEST_P(ResendAckTest, LostAddresseeAckIsAnsweredByFollowersFromTheBitmap) {
    ClusterConfig cfg = fault_config(GetParam());
    const Topology topo(cfg.groups, cfg.group_size, cfg.clients);
    const ProcessId leader = topo.initial_leader(0);
    const ProcessId client = topo.client(0);
    sim::World* world = nullptr;
    cfg.extra_sink = [&world, leader, client](Context& ctx, GroupId,
                                              const AppMessage&) {
        if (ctx.self() == leader) world->sever_link(leader, client);
    };
    Cluster c(cfg);
    world = &c.world();

    const MsgId id = c.multicast_at(milliseconds(1), 0, {0});
    c.run_for(milliseconds(400));

    EXPECT_TRUE(c.client(0).fully_acked(id));
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();

    bool leader_acked = false;
    int follower_reacks = 0;
    for (const sim::SendRecord& rec : acks_for(c, id)) {
        if (rec.from == leader) {
            leader_acked = true;  // sent, and lost on the severed link
            continue;
        }
        ASSERT_EQ(topo.group_of(rec.from), 0);
        const TimePoint at = delivered_at(c, rec.from, id);
        ASSERT_GE(at, 0);
        // Acked on the resend's arrival, well after its own delivery.
        EXPECT_GE(rec.at, at + cfg.client_retry);
        ++follower_reacks;
    }
    EXPECT_TRUE(leader_acked);
    EXPECT_GE(follower_reacks, 1);
}

// The addressee is down before the request reaches it. The first attempt
// is lost; the resend reaches the survivors before any of them delivered,
// so the ack must come from the pending branch, at delivery time.
TEST_P(ResendAckTest, CrashedAddresseeOpIsAckedAtDeliveryByTheNewLeader) {
    Cluster c(fault_config(GetParam()));
    const ProcessId leader = c.topo().initial_leader(0);
    c.world().at(milliseconds(1), [&] { c.world().crash(leader); });
    const MsgId id = c.multicast_at(milliseconds(2), 0, {0});
    c.run_for(milliseconds(600));

    EXPECT_TRUE(c.client(0).fully_acked(id));
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();

    int acked_at_delivery = 0;
    for (const sim::SendRecord& rec : acks_for(c, id)) {
        ASSERT_NE(rec.from, leader);
        ASSERT_EQ(c.topo().group_of(rec.from), 0);
        const TimePoint at = delivered_at(c, rec.from, id);
        ASSERT_GE(at, 0);
        EXPECT_GE(rec.at, at) << "ack before delivery";
        if (rec.at == at) ++acked_at_delivery;
    }
    EXPECT_GE(acked_at_delivery, 1);
}

INSTANTIATE_TEST_SUITE_P(FaultTolerantProtocols, ResendAckTest,
                         ::testing::Values(ProtocolKind::wbcast,
                                           ProtocolKind::ftskeen,
                                           ProtocolKind::fastcast),
                         [](const auto& info) { return param_name(info.param); });

// --- (d) NodeShim across a WAL restart -------------------------------------

// Plays both client roles NodeShim talks to: the coordinator (answers
// every READY with RUN_SPEC, so a restarted shim rebuilds its stack) and
// a driver (sends requests on command, records every DELIVER_ACK).
class ShimClient final : public Process {
public:
    struct Ack {
        ProcessId from;
        MsgId id;
        TimePoint at;
    };

    explicit ShimClient(ctrl::BenchSpec spec) : spec_(spec) {}

    void on_start(Context& ctx) override { ctx_ = &ctx; }
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override {
        const codec::EnvelopeView env(bytes);
        if (env.module == codec::Module::ctrl &&
            env.type == static_cast<std::uint8_t>(ctrl::CtrlMsgType::ready))
            ctx.send(from, ctrl::encode_ctrl(ctrl::CtrlMsgType::run_spec, spec_));
        if (env.module == codec::Module::ctrl &&
            env.type ==
                static_cast<std::uint8_t>(ctrl::CtrlMsgType::replica_done)) {
            codec::Reader body = env.body;
            reports[from] = ctrl::ReplicaDoneMsg::decode(body);
        }
        if (env.module == codec::Module::client &&
            env.type == static_cast<std::uint8_t>(ClientMsgType::deliver_ack))
            acks.push_back({from, env.about, ctx.now()});
    }
    void on_timer(Context&, TimerId) override {}

    // Must be called from inside a simulator event.
    void request(ProcessId to, const AppMessage& m) {
        ctx_->send(to, encode_multicast_request(m));
    }
    void report(ProcessId to) {
        ctx_->send(to, ctrl::encode_ctrl(ctrl::CtrlMsgType::report));
    }

    std::vector<Ack> acks;
    std::map<ProcessId, ctrl::ReplicaDoneMsg> reports;  // the latest each

private:
    ctrl::BenchSpec spec_;
    Context* ctx_ = nullptr;
};

class ShimRestartAckTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ShimRestartAckTest, ReplayAcksNobodyAndAResendIsReackedFromTheWal) {
    const Topology topo(2, 3, 1);
    const std::string dir = testing::TempDir() + "client_ack_" +
                            param_name(GetParam());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto path = [&](ProcessId p) {
        return dir + "/p" + std::to_string(p) + ".wal";
    };
    std::vector<std::unique_ptr<wal::Log>> wals;
    for (ProcessId p = 0; p < topo.num_replicas(); ++p)
        wals.push_back(std::make_unique<wal::Log>(path(p),
                                                  wal::SyncMode::group_commit));

    ctrl::BenchSpec spec;
    spec.proto = GetParam();
    spec.heartbeat_interval = milliseconds(5);
    spec.retry_interval = milliseconds(25);
    const ProcessId coord = topo.client(0);
    std::vector<std::atomic<bool>> flags(
        static_cast<std::size_t>(topo.num_replicas()));
    {
        sim::World world(topo, std::make_unique<sim::UniformDelay>(milliseconds(1)),
                         7);
        for (ProcessId p = 0; p < topo.num_replicas(); ++p)
            world.add_process(p, std::make_unique<ctrl::NodeShim>(
                                     topo, p, coord,
                                     &flags[static_cast<std::size_t>(p)],
                                     wals[static_cast<std::size_t>(p)].get()));
        auto owned = std::make_unique<ShimClient>(spec);
        ShimClient* client = owned.get();
        world.add_process(coord, std::move(owned));
        world.start();

        const ProcessId leader = topo.initial_leader(0);
        const ProcessId victim = topo.member(0, 1);
        std::vector<AppMessage> ops;
        for (std::uint32_t i = 0; i < 20; ++i) {
            ops.push_back(make_app_message(make_msg_id(coord, i), {0},
                                           Bytes{0x42}));
            world.at(milliseconds(20 + 5 * i), [client, leader, m = ops.back()] {
                client->request(leader, m);
            });
        }
        world.at(milliseconds(200), [&] { world.crash(victim); });
        world.at(milliseconds(250), [&] {
            auto& log = wals[static_cast<std::size_t>(victim)];
            log->discard_pending();
            log.reset();
            log = std::make_unique<wal::Log>(path(victim),
                                             wal::SyncMode::group_commit);
            world.restart(victim,
                          std::make_unique<ctrl::NodeShim>(
                              topo, victim, coord,
                              &flags[static_cast<std::size_t>(victim)],
                              log.get()));
        });
        world.at(milliseconds(350), [&] {
            client->request(victim, ops.front());
            client->request(victim, ops.back());
        });
        world.run_until(milliseconds(500));

        // Before the crash: one ack per op, from the addressee.
        std::map<MsgId, int> leader_acks;
        for (const ShimClient::Ack& a : client->acks) {
            if (a.at < milliseconds(200)) {
                EXPECT_EQ(a.from, leader);
                ++leader_acks[a.id];
            }
        }
        for (const AppMessage& m : ops) EXPECT_EQ(leader_acks[m.id], 1);
        // The restart's replay acks nobody; the resend is re-acked at once
        // for both ops, though no client asked the new incarnation before.
        std::map<MsgId, int> reacks;
        for (const ShimClient::Ack& a : client->acks) {
            if (a.from != victim) continue;
            EXPECT_GE(a.at, milliseconds(350)) << "replay acked op " << a.id;
            ++reacks[a.id];
        }
        EXPECT_EQ(reacks[ops.front().id], 1);
        EXPECT_EQ(reacks[ops.back().id], 1);
        EXPECT_EQ(reacks.size(), 2u);
    }
    wals.clear();
    std::filesystem::remove_all(dir);
}

// Cuts the trailing `delivered` records off a closed log file, as a kill -9
// in the middle of the last commit's write would. Returns how many.
std::size_t tear_trailing_deliveries(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> image(std::istreambuf_iterator<char>(in),
                                          {});
    // Frames: [len: u32 LE][crc: u32][type: u8][body: len-1 bytes].
    std::size_t cut = image.size();
    std::size_t torn = 0;
    for (std::size_t at = 0; at + 9 <= image.size();) {
        std::uint32_t len = 0;
        for (int i = 3; i >= 0; --i) len = (len << 8) | image[at + i];
        if (image[at + 8] != wal::tag(wal::RecordType::delivered)) {
            torn = 0;
        } else if (torn++ == 0) {
            cut = at;  // the first of a run of trailing deliveries
        }
        at += 8 + len;
    }
    in.close();
    if (torn > 0) std::filesystem::resize_file(path, cut);
    return torn;
}

// The shim rebuilds its (count, digest) from the replica's `delivered`
// records, so a restarted shim reports its group's, after one restart and
// after two. The first crash tears the victim's last deliveries off its
// log: the restart re-emits them while replaying (appends muted), and the
// second restart finds them only if the scaffold logged them afterwards.
TEST_P(ShimRestartAckTest, RestartedShimReportsItsGroupsDigest) {
    const Topology topo(2, 3, 1);
    const std::string dir = testing::TempDir() + "client_ack_digest_" +
                            param_name(GetParam());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto path = [&](ProcessId p) {
        return dir + "/p" + std::to_string(p) + ".wal";
    };
    std::vector<std::unique_ptr<wal::Log>> wals;
    for (ProcessId p = 0; p < topo.num_replicas(); ++p)
        wals.push_back(std::make_unique<wal::Log>(path(p),
                                                  wal::SyncMode::group_commit));

    ctrl::BenchSpec spec;
    spec.proto = GetParam();
    spec.heartbeat_interval = milliseconds(5);
    spec.retry_interval = milliseconds(25);
    const ProcessId coord = topo.client(0);
    std::vector<std::atomic<bool>> flags(
        static_cast<std::size_t>(topo.num_replicas()));
    {
        sim::World world(topo, std::make_unique<sim::UniformDelay>(milliseconds(1)),
                         7);
        for (ProcessId p = 0; p < topo.num_replicas(); ++p)
            world.add_process(p, std::make_unique<ctrl::NodeShim>(
                                     topo, p, coord,
                                     &flags[static_cast<std::size_t>(p)],
                                     wals[static_cast<std::size_t>(p)].get()));
        auto owned = std::make_unique<ShimClient>(spec);
        ShimClient* client = owned.get();
        world.add_process(coord, std::move(owned));
        world.start();

        const ProcessId leader = topo.initial_leader(0);
        const ProcessId victim = topo.member(0, 1);
        auto issue = [&](std::uint32_t first, std::uint32_t n, TimePoint from) {
            for (std::uint32_t i = 0; i < n; ++i)
                world.at(from + milliseconds(5 * i),
                         [client, leader, m = make_app_message(
                                              make_msg_id(coord, first + i),
                                              {0}, Bytes{0x42})] {
                             client->request(leader, m);
                         });
        };
        std::size_t torn = 0;
        auto restart = [&](TimePoint crash_at, TimePoint restart_at,
                           bool tear) {
            world.at(crash_at, [&] { world.crash(victim); });
            world.at(restart_at, [&, tear] {
                auto& log = wals[static_cast<std::size_t>(victim)];
                log->discard_pending();
                log.reset();
                if (tear) torn = tear_trailing_deliveries(path(victim));
                log = std::make_unique<wal::Log>(path(victim),
                                                 wal::SyncMode::group_commit);
                world.restart(victim,
                              std::make_unique<ctrl::NodeShim>(
                                  topo, victim, coord,
                                  &flags[static_cast<std::size_t>(victim)],
                                  log.get()));
            });
        };
        // Every member's (count, digest) as its REPORT answer gives it.
        auto expect_group_agrees = [&](std::uint64_t ops, const char* when) {
            const ctrl::ReplicaDoneMsg& first =
                client->reports.at(topo.member(0, 0));
            EXPECT_EQ(first.delivered, ops) << when;
            for (const ProcessId p : topo.members(0)) {
                const ctrl::ReplicaDoneMsg& done = client->reports.at(p);
                EXPECT_EQ(done.delivered, first.delivered) << when << " p" << p;
                EXPECT_EQ(done.digest, first.digest) << when << " p" << p;
            }
        };
        auto report_at = [&](TimePoint at) {
            world.at(at, [&] {
                client->reports.clear();
                for (const ProcessId p : topo.members(0)) client->report(p);
            });
        };

        // 102 ms: right after a delivery handler on every row, so the
        // victim's log ends in `delivered` records. The restarted member
        // catches up on what it missed by the GC exchange (every 250 ms).
        issue(0, 40, milliseconds(20));  // until 215 ms
        restart(milliseconds(102), milliseconds(152), true);
        report_at(milliseconds(590));
        world.run_until(milliseconds(600));
        EXPECT_GE(torn, 1u) << "the first crash tore no delivery off the log";
        expect_group_agrees(40, "after one restart");

        issue(40, 20, milliseconds(610));  // until 705 ms
        restart(milliseconds(650), milliseconds(680), false);
        report_at(milliseconds(1190));
        world.run_until(milliseconds(1200));
        expect_group_agrees(60, "after two restarts");
    }
    wals.clear();
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(FaultTolerantProtocols, ShimRestartAckTest,
                         ::testing::Values(ProtocolKind::wbcast,
                                           ProtocolKind::ftskeen,
                                           ProtocolKind::fastcast),
                         [](const auto& info) { return param_name(info.param); });

// --- (e) a harness replica across a WAL restart ---------------------------

// The drill of (d) through Cluster::restart_replica, without NodeShim and
// its rebuilt delivery sequence: the replica re-marks its delivered past
// while it replays its own WAL, so a resend of a pre-crash op is re-acked
// at once, though replay suppresses the op's delivery.
class HarnessRestartAckTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(HarnessRestartAckTest, ResentPreCrashOpIsReackedFromTheReplay) {
    ClusterConfig cfg = fault_config(GetParam());
    const Topology topo(cfg.groups, cfg.group_size, cfg.clients);
    const std::string dir = testing::TempDir() + "client_ack_harness_" +
                            param_name(GetParam());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto path = [&](ProcessId p) {
        return dir + "/p" + std::to_string(p) + ".wal";
    };
    std::vector<std::unique_ptr<wal::Log>> wals;
    for (ProcessId p = 0; p < topo.num_replicas(); ++p)
        wals.push_back(std::make_unique<wal::Log>(path(p),
                                                  wal::SyncMode::group_commit));
    cfg.tune_replica = [&wals](ProcessId p, ReplicaConfig& rc) {
        rc.wal = wals[static_cast<std::size_t>(p)].get();
    };
    {
        Cluster c(cfg);
        const ProcessId victim = topo.member(0, 1);
        const ProcessId client = topo.client(0);
        std::vector<MsgId> ops;
        for (int i = 0; i < 20; ++i)
            ops.push_back(c.multicast_at(milliseconds(20 + 5 * i), 0, {0}));
        c.world().at(milliseconds(200), [&] { c.world().crash(victim); });
        c.world().at(milliseconds(250), [&] {
            auto& log = wals[static_cast<std::size_t>(victim)];
            log->discard_pending();
            log.reset();
            log = std::make_unique<wal::Log>(path(victim),
                                             wal::SyncMode::group_commit);
            c.restart_replica(victim);
        });
        const TimePoint resend_at = milliseconds(350);
        c.world().at(resend_at, [&] {
            for (const MsgId id : {ops.front(), ops.back()})
                c.world().send_from(
                    client, victim,
                    encode_multicast_request(make_app_message(id, {0}, {})));
        });
        c.run_for(milliseconds(500));

        const auto result = c.check();
        EXPECT_TRUE(result.ok()) << result.summary();
        for (const MsgId id : ops) {
            const TimePoint at = delivered_at(c, victim, id);
            EXPECT_GE(at, 0);
            EXPECT_LT(at, milliseconds(200)) << "op " << id;
        }
        // Replay acks nobody; each resent op is acked once, on arrival.
        std::map<MsgId, int> reacks;
        for (const sim::SendRecord& rec : c.world().send_trace()) {
            if (!is_deliver_ack(rec) || rec.from != victim) continue;
            EXPECT_GE(rec.at, resend_at) << "replay acked op " << rec.about;
            EXPECT_LE(rec.at, resend_at + cfg.delta) << "op " << rec.about;
            ++reacks[rec.about];
        }
        EXPECT_EQ(reacks[ops.front()], 1);
        EXPECT_EQ(reacks[ops.back()], 1);
        EXPECT_EQ(reacks.size(), 2u);
    }
    wals.clear();
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(FaultTolerantProtocols, HarnessRestartAckTest,
                         ::testing::Values(ProtocolKind::wbcast,
                                           ProtocolKind::ftskeen,
                                           ProtocolKind::fastcast),
                         [](const auto& info) { return param_name(info.param); });

// --- (f) the paged bitmap --------------------------------------------------

TEST(DeliveredBitmapTest, OutOfOrderMarks) {
    DeliveredBitmap b;
    const ProcessId c = 9;
    const std::vector<std::uint32_t> seqs = {4100, 7, 4095, 0, 63, 64, 4096};
    for (const std::uint32_t s : seqs) EXPECT_TRUE(b.mark(make_msg_id(c, s)));
    for (const std::uint32_t s : seqs) {
        EXPECT_TRUE(b.contains(make_msg_id(c, s))) << s;
        EXPECT_FALSE(b.mark(make_msg_id(c, s))) << "double mark of " << s;
    }
    for (const std::uint32_t s : {1u, 6u, 8u, 62u, 65u, 4094u, 4097u, 4099u})
        EXPECT_FALSE(b.contains(make_msg_id(c, s))) << s;
    EXPECT_FALSE(b.contains(make_msg_id(c + 1, 7)));  // another client
    EXPECT_EQ(b.pages(), 2u);
}

// A client's seqs interleave across groups, so a group's bitmap has gaps
// where the client's other ops went; they stay unmarked and cost nothing
// beyond the pages the group's own ops touch.
TEST(DeliveredBitmapTest, GapsFromOpsForOtherGroups) {
    DeliveredBitmap b;
    const ProcessId c = 3;
    for (std::uint32_t s = 0; s < 3 * 4096; s += 3) b.mark(make_msg_id(c, s));
    for (std::uint32_t s = 0; s < 3 * 4096; ++s)
        ASSERT_EQ(b.contains(make_msg_id(c, s)), s % 3 == 0) << s;
    EXPECT_LE(b.pages(), 4u);
}

TEST(DeliveredBitmapTest, ExtremeSeqsCostOnePageEach) {
    EXPECT_EQ(DeliveredBitmap::page_bytes, 512u);
    DeliveredBitmap low;
    low.mark(make_msg_id(4, 0));
    EXPECT_EQ(low.pages(), 1u);
    DeliveredBitmap high;
    high.mark(make_msg_id(4, 0xFFFFFFFEu));
    EXPECT_EQ(high.pages(), 1u);
    EXPECT_TRUE(high.contains(make_msg_id(4, 0xFFFFFFFEu)));
    EXPECT_FALSE(high.contains(make_msg_id(4, 0)));
    DeliveredBitmap top;
    top.mark(~MsgId{0});
    EXPECT_EQ(top.pages(), 1u);
    EXPECT_TRUE(top.contains(~MsgId{0}));
    high.mark(make_msg_id(4, 0));
    EXPECT_EQ(high.pages(), 2u);
}

}  // namespace
}  // namespace wbam
