// Fault-injection and boundedness tests for consensus-log retention: the
// applied floor (members report applied progress on the scaffold's GC
// exchange, the leader folds it over a fresh quorum, and every member's
// engine prunes its chosen log below it) and the floor-aware catch-up
// path (a member that fell behind the floor installs a peer's
// state snapshot and resumes in the agreed order). Partitions use the
// simulator's lossy sever_link primitive — held-and-released block_link
// traffic would let a member catch up slot-by-slot and never exercise the
// snapshot path. Also covers the wbcast GC idle-traffic regression.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "fastcast/fastcast.hpp"
#include "ftskeen/ftskeen.hpp"
#include "sim/network.hpp"
#include "test_util.hpp"
#include "wbcast/protocol.hpp"

namespace wbam {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::ProtocolKind;

constexpr Duration delta = milliseconds(1);
constexpr Duration gc_every = milliseconds(50);

ClusterConfig retention_config(ProtocolKind kind, int groups, int clients,
                               std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.kind = kind;
    cfg.groups = groups;
    cfg.group_size = 3;
    cfg.clients = clients;
    cfg.seed = seed;
    cfg.delta = delta;
    cfg.replica.heartbeat_interval = milliseconds(5);
    cfg.replica.suspect_timeout = milliseconds(20);
    cfg.replica.retry_interval = milliseconds(25);
    cfg.replica.gc_interval = gc_every;
    cfg.client_retry = milliseconds(50);
    cfg.trace_sends = true;
    return cfg;
}

std::size_t count_records(const std::vector<sim::SendRecord>& trace,
                          codec::Module module, std::uint8_t type,
                          ProcessId to = invalid_process) {
    std::size_t n = 0;
    for (const sim::SendRecord& r : trace) {
        if (r.module != static_cast<std::uint8_t>(module)) continue;
        if (r.type != type) continue;
        if (to != invalid_process && r.to != to) continue;
        ++n;
    }
    return n;
}

std::size_t count_paxos(const std::vector<sim::SendRecord>& trace,
                        paxos::MsgType type, ProcessId to = invalid_process) {
    return count_records(trace, codec::Module::paxos,
                         static_cast<std::uint8_t>(type), to);
}

// Per-protocol view of one replica's consensus engine (wbcast has none).
const paxos::MultiPaxos* paxos_of(Cluster& c, ProtocolKind kind, ProcessId p) {
    switch (kind) {
        case ProtocolKind::ftskeen:
            return &c.world().process_as<ftskeen::FtSkeenReplica>(p).paxos();
        case ProtocolKind::fastcast:
            return &c.world().process_as<fastcast::FastCastReplica>(p).paxos();
        default:
            return nullptr;
    }
}

// --- boundedness under steady traffic ----------------------------------------

// The acceptance bound: with commands arriving steadily, the retained
// chosen log must stay within a small multiple of the slots chosen per GC
// window (floor lag is one status round plus one prune round, ~2-3
// intervals), never grow with the run length. The workload below chooses
// ~4 slots per group per 50ms window over a 40-cycle soak, so 60 retained
// entries is already > 2x the window and far below the ~240 total slots.
TEST(RetentionTest, SteadyTrafficKeepsChosenLogBounded) {
    Cluster c(retention_config(ProtocolKind::ftskeen, 2, 1, 3));
    for (int i = 0; i < 60; ++i)
        c.multicast_at(milliseconds(5) + i * microseconds(25'000), 0, {0, 1});
    std::map<ProcessId, std::uint64_t> max_chosen;
    std::map<ProcessId, std::uint64_t> last_applied;
    bool monotone = true;
    for (TimePoint t = milliseconds(100); t <= milliseconds(2000);
         t += milliseconds(50)) {
        c.world().at(t, [&] {
            for (const GroupId g : c.topo().all_groups()) {
                for (const ProcessId p : c.topo().members(g)) {
                    const auto* px = paxos_of(c, ProtocolKind::ftskeen, p);
                    max_chosen[p] = std::max(max_chosen[p], px->chosen_count());
                    monotone &= px->applied_upto() >= last_applied[p];
                    last_applied[p] = px->applied_upto();
                }
            }
        });
    }
    c.run_for(milliseconds(2400));
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(c.log().completed_count(), 60u);
    EXPECT_TRUE(monotone);
    for (const auto& [p, chosen] : max_chosen)
        EXPECT_LE(chosen, 60u) << "replica " << p
                               << " retains an unbounded chosen log";
    // The soak really spanned >= 10 GC cycles and really pruned: every
    // member ends with a non-trivial floor and ~240 applied slots.
    for (const GroupId g : c.topo().all_groups()) {
        for (const ProcessId p : c.topo().members(g)) {
            const auto* px = paxos_of(c, ProtocolKind::ftskeen, p);
            EXPECT_GT(px->pruned_upto(), 0u) << "replica " << p;
            EXPECT_GE(px->applied_upto(), 100u) << "replica " << p;
            EXPECT_LE(px->chosen_count(),
                      px->applied_upto() - px->pruned_upto() + 8)
                << "replica " << p;
        }
    }
}

// --- partition -> prune -> heal -> snapshot catch-up -------------------------

// One ftskeen member is severed (its traffic is lost, not held), the group
// keeps serving and prunes past the severed member's apply point, the
// member heals and must rejoin via the snapshot path — then deliver every
// message in the agreed order (checker-validated).
TEST(RetentionTest, SeveredFtskeenMemberCatchesUpViaSnapshot) {
    Cluster c(retention_config(ProtocolKind::ftskeen, 2, 1, 7));
    const ProcessId lagging = 2;  // follower of group 0
    // The member delivers the first handful of messages before the cut, so
    // the snapshot it later receives strips exactly those payloads (its
    // catch-up mark) and it ends up holding stubs.
    c.world().at(milliseconds(200), [&c] { c.world().sever_process(lagging); });
    for (int i = 0; i < 30; ++i)
        c.multicast_at(milliseconds(10) + i * microseconds(30'000), 0, {0, 1},
                       Bytes{0x42, 0x43, 0x44});
    // ~15 GC cycles pass while the member is cut off; the group's floor
    // moves far beyond its apply point.
    c.world().at(milliseconds(950), [&c] { c.world().restore_process(lagging); });
    for (int i = 0; i < 5; ++i)
        c.multicast_at(milliseconds(1100) + i * microseconds(30'000), 0, {0, 1},
                       Bytes{0x45});
    c.run_for(milliseconds(2600));

    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    const auto genuine = c.check_genuine();
    EXPECT_TRUE(genuine.ok()) << genuine.summary();
    EXPECT_EQ(c.log().completed_count(), 35u);
    // The healed member delivered everything, in the group's order (the
    // prefix check inside check() validates the order; count it too).
    const auto it = c.log().deliveries().find(lagging);
    ASSERT_NE(it, c.log().deliveries().end());
    EXPECT_EQ(it->second.size(), 35u);
    // It got there via the snapshot path, not slot-by-slot.
    EXPECT_GE(count_paxos(c.world().send_trace(),
                          paxos::MsgType::catchup_snapshot, lagging), 1u);
    const auto* lag_paxos = paxos_of(c, ProtocolKind::ftskeen, lagging);
    EXPECT_GT(lag_paxos->pruned_upto(), 0u);
    // Once the group-wide delivered floor passed them, every member
    // compacted the delivered entries to payload-less stubs (the app-log
    // retention mirror of wbcast). Stubs mean no member can seed a
    // hypothetical blank member below the floor — exactly wbcast's
    // property — but every member can serve any requester at-or-above its
    // own watermark, which covers every member that ever reported.
    auto& healed = c.world().process_as<ftskeen::FtSkeenReplica>(lagging);
    EXPECT_GT(healed.compacted_count(), 0u);
    EXPECT_FALSE(healed.can_serve_snapshot(bottom_ts));
    EXPECT_FALSE(c.world().process_as<ftskeen::FtSkeenReplica>(0)
                     .can_serve_snapshot(bottom_ts));
    EXPECT_TRUE(healed.can_serve_snapshot(healed.max_delivered_gts()));
    for (const ProcessId p : c.topo().members(0)) {
        auto& r = c.world().process_as<ftskeen::FtSkeenReplica>(p);
        EXPECT_TRUE(r.can_serve_snapshot(r.max_delivered_gts()));
    }
    // Applied state is byte-identical across every member of each group.
    for (const GroupId g : c.topo().all_groups()) {
        const auto& members = c.topo().members(g);
        const Bytes reference =
            c.world().process_as<ftskeen::FtSkeenReplica>(members.front())
                .state_snapshot();
        for (const ProcessId p : members) {
            EXPECT_EQ(c.world().process_as<ftskeen::FtSkeenReplica>(p)
                          .state_snapshot(),
                      reference)
                << "replica " << p << " of group " << g << " diverged";
        }
    }
    // And every member converged to the same apply point with a bounded log.
    for (const ProcessId p : c.topo().members(0)) {
        const auto* px = paxos_of(c, ProtocolKind::ftskeen, p);
        EXPECT_EQ(px->applied_upto(),
                  paxos_of(c, ProtocolKind::ftskeen, 0)->applied_upto());
        EXPECT_LE(px->chosen_count(), 60u);
    }
}

// The same scenario through fastcast (the second MultiPaxos consumer).
TEST(RetentionTest, SeveredFastcastMemberCatchesUpViaSnapshot) {
    Cluster c(retention_config(ProtocolKind::fastcast, 2, 1, 11));
    const ProcessId lagging = 1;  // follower of group 0
    c.world().at(milliseconds(2), [&c] { c.world().sever_process(lagging); });
    for (int i = 0; i < 30; ++i)
        c.multicast_at(milliseconds(10) + i * microseconds(30'000), 0, {0, 1});
    c.world().at(milliseconds(950), [&c] { c.world().restore_process(lagging); });
    for (int i = 0; i < 5; ++i)
        c.multicast_at(milliseconds(1100) + i * microseconds(30'000), 0, {0, 1});
    c.run_for(milliseconds(2600));

    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(c.log().completed_count(), 35u);
    const auto it = c.log().deliveries().find(lagging);
    ASSERT_NE(it, c.log().deliveries().end());
    EXPECT_EQ(it->second.size(), 35u);
    EXPECT_GE(count_paxos(c.world().send_trace(),
                          paxos::MsgType::catchup_snapshot, lagging), 1u);
    for (const GroupId g : c.topo().all_groups()) {
        const auto& members = c.topo().members(g);
        const Bytes reference =
            c.world().process_as<fastcast::FastCastReplica>(members.front())
                .state_snapshot();
        for (const ProcessId p : members) {
            EXPECT_EQ(c.world().process_as<fastcast::FastCastReplica>(p)
                          .state_snapshot(),
                      reference)
                << "replica " << p << " of group " << g << " diverged";
        }
    }
    for (const ProcessId p : c.topo().members(0))
        EXPECT_LE(paxos_of(c, ProtocolKind::fastcast, p)->chosen_count(), 60u);
}

// --- application-log retention: stubs below the delivered floor --------------

// Steady traffic, then quiescence: every member must have compacted every
// group-delivered entry to a payload-less stub (the delivered floor caught
// up with the watermark), and the no-arg state snapshot — which omits the
// delivered past outright — must be entry-free and byte-identical across
// members: its entry count is bounded by a requester's gap, never the run
// length.
template <typename Replica>
void run_app_log_stub_test(ProtocolKind kind, std::uint64_t seed) {
    Cluster c(retention_config(kind, 2, 1, seed));
    constexpr int n = 24;
    for (int i = 0; i < n; ++i)
        c.multicast_at(milliseconds(5) + i * microseconds(25'000), 0, {0, 1},
                       Bytes{0x11, 0x22});
    c.run_for(milliseconds(1600));  // n * 25ms of traffic + many GC cycles
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(c.log().completed_count(), static_cast<std::size_t>(n));
    for (const GroupId g : c.topo().all_groups()) {
        Bytes reference;
        for (const ProcessId p : c.topo().members(g)) {
            auto& r = c.world().process_as<Replica>(p);
            EXPECT_EQ(r.entry_count(), static_cast<std::size_t>(n))
                << "replica " << p;
            EXPECT_EQ(r.compacted_count(), static_cast<std::size_t>(n))
                << "replica " << p << " retains uncompacted delivered entries";
            // All entries delivered and compacted: the snapshot ships only
            // the clock and a zero entry count.
            const Bytes snap = r.state_snapshot();
            EXPECT_LE(snap.size(), 16u) << "replica " << p;
            if (reference.empty()) reference = snap;
            EXPECT_EQ(snap, reference) << "replica " << p;
        }
    }
}

TEST(RetentionTest, FtskeenAppLogDropsToStubsBelowDeliveryFloor) {
    run_app_log_stub_test<ftskeen::FtSkeenReplica>(ProtocolKind::ftskeen, 29);
}

TEST(RetentionTest, FastcastAppLogDropsToStubsBelowDeliveryFloor) {
    run_app_log_stub_test<fastcast::FastCastReplica>(ProtocolKind::fastcast,
                                                     31);
}

// The GC plane must stay silent on an idle cluster, like wbcast's GC:
// nothing delivered or applied means no reports, no announcements and no
// catch-up requests.
TEST(RetentionTest, IdleAppGcSendsNoTraffic) {
    const struct {
        ProtocolKind kind;
        std::uint8_t status_type;
        std::uint8_t prune_type;
    } cases[] = {
        {ProtocolKind::ftskeen,
         static_cast<std::uint8_t>(ftskeen::MsgType::gc_status),
         static_cast<std::uint8_t>(ftskeen::MsgType::gc_prune)},
        {ProtocolKind::fastcast,
         static_cast<std::uint8_t>(fastcast::MsgType::gc_status),
         static_cast<std::uint8_t>(fastcast::MsgType::gc_prune)},
    };
    for (const auto& cs : cases) {
        Cluster c(retention_config(cs.kind, 2, 0, 37));
        c.run_for(milliseconds(1000));  // 20 GC intervals
        const auto& trace = c.world().send_trace();
        EXPECT_EQ(count_records(trace, codec::Module::proto, cs.status_type),
                  0u);
        EXPECT_EQ(count_records(trace, codec::Module::proto, cs.prune_type),
                  0u);
        EXPECT_EQ(count_paxos(trace, paxos::MsgType::catchup_request), 0u);
    }
}

// --- randomized soak across all retention-enabled protocols ------------------

struct SoakCase {
    ProtocolKind kind;
    std::uint64_t seed;
};

class RetentionSoak : public ::testing::TestWithParam<SoakCase> {};

// Seeded random workload; every 100ms, every replica must show (a) a
// monotonically advancing apply point and (b) a bounded log: the paxos
// chosen log for the black-box baselines, the uncompacted entry count for
// wbcast. The run then has to pass the full specification checker.
TEST_P(RetentionSoak, LogsStayBoundedWhileApplyAdvances) {
    const auto [kind, seed] = GetParam();
    Cluster c(retention_config(kind, 2, 2, seed));
    Rng rng(seed * 31 + 7);
    testutil::random_workload(c, rng, 80, milliseconds(2000), 2,
                              milliseconds(5));
    std::map<ProcessId, std::uint64_t> last_applied;
    std::size_t max_retained = 0;
    bool monotone = true;
    for (TimePoint t = milliseconds(100); t <= milliseconds(2400);
         t += milliseconds(100)) {
        c.world().at(t, [&, kind = kind] {
            for (const GroupId g : c.topo().all_groups()) {
                for (const ProcessId p : c.topo().members(g)) {
                    if (kind == ProtocolKind::wbcast) {
                        auto& r = c.world().process_as<wbcast::WbcastReplica>(p);
                        max_retained = std::max(
                            max_retained, r.entry_count() - r.compacted_count());
                    } else {
                        const auto* px = paxos_of(c, kind, p);
                        max_retained =
                            std::max(max_retained,
                                     static_cast<std::size_t>(px->chosen_count()));
                        monotone &= px->applied_upto() >= last_applied[p];
                        last_applied[p] = px->applied_upto();
                    }
                }
            }
        });
    }
    c.run_for(milliseconds(2800));
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(c.log().completed_count(), 80u);
    EXPECT_TRUE(monotone);
    // 80 messages produce >= 160 consensus commands per busy group; a log
    // bounded by the GC window stays far below that.
    EXPECT_LE(max_retained, 80u);
    EXPECT_GT(max_retained, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, RetentionSoak,
    ::testing::Values(SoakCase{ProtocolKind::wbcast, 1},
                      SoakCase{ProtocolKind::wbcast, 2},
                      SoakCase{ProtocolKind::ftskeen, 3},
                      SoakCase{ProtocolKind::ftskeen, 4},
                      SoakCase{ProtocolKind::fastcast, 5},
                      SoakCase{ProtocolKind::fastcast, 6}));

// --- idle clusters must stay silent on the GC plane --------------------------

// Regression (wbcast): followers used to report max_delivered_gts == ⊥
// every GC interval on a cluster that had never delivered anything.
TEST(RetentionTest, IdleWbcastClusterSendsNoGcTraffic) {
    Cluster c(retention_config(ProtocolKind::wbcast, 2, 0, 13));
    c.run_for(milliseconds(1000));  // 20 GC intervals
    const auto& trace = c.world().send_trace();
    EXPECT_EQ(count_records(trace, codec::Module::proto,
                            static_cast<std::uint8_t>(wbcast::MsgType::gc_status)),
              0u);
    EXPECT_EQ(count_records(trace, codec::Module::proto,
                            static_cast<std::uint8_t>(wbcast::MsgType::gc_prune)),
              0u);
}

// --- raw engine: prune + snapshot catch-up without a protocol on top ---------

// Minimal host whose replicated state is the applied command history;
// snapshots ship it verbatim. It drives MultiPaxos retention the way
// RsmReplica does, over the scaffold's GC bodies (multicast/gc_floor.hpp):
// members report applied_upto to the leader, the leader folds the applied
// floor in a DeliveredFloor, sets it on its engine and announces it with
// its own applied_upto, and a member behind either asks for catch-up.
class GcPaxosHost final : public Process {
public:
    static constexpr std::uint8_t status_type = 0;
    static constexpr std::uint8_t prune_type = 1;

    GcPaxosHost(std::vector<ProcessId> members, int quorum)
        : members_(members),
          reports_(members, static_cast<std::size_t>(quorum)) {
        paxos::PaxosConfig cfg;
        cfg.retry_interval = milliseconds(25);
        engine = std::make_unique<paxos::MultiPaxos>(
            std::move(members), quorum,
            [this](Context&, std::uint64_t slot, const paxos::Command& cmd) {
                applied.emplace_back(slot, cmd.data.to_bytes());
            },
            cfg);
        engine->set_state_handlers(
            [this](const BufferSlice&) {
                codec::Writer w;
                codec::write_field(w, applied);
                return std::move(w).take();
            },
            [this](Context&, const BufferSlice& s) {
                codec::Reader r(s);
                codec::read_field(r, applied);
                r.expect_done();
            });
    }

    void on_start(Context& c) override {
        ctx = &c;
        engine->start(c);
        tick = c.set_timer(milliseconds(25));
        gc = c.set_timer(gc_every);
    }
    void on_message(Context& c, ProcessId from, const BufferSlice& bytes) override {
        codec::EnvelopeView env(bytes);
        if (engine->handle_message(c, from, env)) return;
        if (env.type == status_type) {
            const auto m = GcStatusMsg::decode(env.body);
            if (engine->is_leader())
                reports_.note(from, bottom_ts, m.applied_upto, c.now());
        } else if (env.type == prune_type) {
            const auto m = GcPruneMsg::decode(env.body);
            engine->set_prune_floor(m.applied_floor);
            if (m.applied_upto > engine->applied_upto())
                engine->request_catchup(c, from);
        }
    }
    void on_timer(Context& c, TimerId id) override {
        if (id == tick) {
            tick = c.set_timer(milliseconds(25));
            engine->on_tick(c);
        } else if (id == gc) {
            gc = c.set_timer(gc_every);
            gc_round(c);
        }
    }

    std::unique_ptr<paxos::MultiPaxos> engine;
    std::vector<std::pair<std::uint64_t, Bytes>> applied;
    Context* ctx = nullptr;
    TimerId tick = invalid_timer;
    TimerId gc = invalid_timer;

private:
    void gc_round(Context& c) {
        const Duration fresh = 3 * gc_every;
        const std::uint64_t upto = engine->applied_upto();
        if (engine->prune_floor() > upto) {
            const ProcessId deepest = reports_.deepest(c.self(), c.now(), fresh);
            engine->request_catchup(c, deepest);
            if (!engine->is_leader() && engine->leader_hint() != deepest)
                engine->request_catchup(c, engine->leader_hint());
        }
        if (!engine->is_leader()) {
            if (upto > 0)
                c.send(engine->leader_hint(),
                       codec::encode_envelope(codec::Module::proto, status_type,
                                              invalid_msg,
                                              GcStatusMsg{bottom_ts, upto}));
            return;
        }
        reports_.note(c.self(), bottom_ts, upto, c.now());
        const std::uint64_t floor = reports_.applied_floor(c.now(), fresh);
        engine->set_prune_floor(floor);
        if (floor == 0) return;
        const Buffer wire = codec::encode_envelope(
            codec::Module::proto, prune_type, invalid_msg,
            GcPruneMsg{bottom_ts, floor, upto});
        for (const ProcessId p : members_)
            if (p != c.self()) c.send(p, wire);
    }

    std::vector<ProcessId> members_;
    DeliveredFloor reports_;
};

TEST(RetentionTest, RawEngineSnapshotHealsSeveredMember) {
    const int n = 3;
    sim::World world(Topology(1, n, 0),
                     std::make_unique<sim::UniformDelay>(delta), 21);
    world.enable_send_trace(true);
    std::vector<GcPaxosHost*> hosts;
    std::vector<ProcessId> members;
    for (ProcessId p = 0; p < n; ++p) members.push_back(p);
    for (ProcessId p = 0; p < n; ++p) {
        auto host = std::make_unique<GcPaxosHost>(members, n / 2 + 1);
        hosts.push_back(host.get());
        world.add_process(p, std::move(host));
    }
    world.start();
    world.at(milliseconds(1), [&world] { world.sever_process(2); });
    for (int i = 0; i < 40; ++i) {
        world.at(milliseconds(5) + i * milliseconds(10), [&hosts, i] {
            hosts[0]->engine->submit(
                *hosts[0]->ctx,
                paxos::Command{static_cast<MsgId>(i + 1),
                               Bytes{static_cast<std::uint8_t>(i)}});
        });
    }
    world.at(milliseconds(500), [&world] { world.restore_process(2); });
    world.run_for(milliseconds(1200));

    // The leader pruned while the member was cut off...
    EXPECT_GT(hosts[0]->engine->pruned_upto(), 0u);
    // ...and the healed member rejoined via snapshot, not slot-by-slot.
    EXPECT_GE(count_paxos(world.send_trace(),
                          paxos::MsgType::catchup_snapshot, 2), 1u);
    EXPECT_GT(hosts[2]->engine->pruned_upto(), 0u);
    // All members hold the identical applied history and a bounded log.
    ASSERT_EQ(hosts[2]->applied.size(), hosts[0]->applied.size());
    EXPECT_EQ(hosts[2]->applied, hosts[0]->applied);
    EXPECT_EQ(hosts[1]->applied, hosts[0]->applied);
    EXPECT_EQ(hosts[0]->applied.size(), 40u);
    for (const GcPaxosHost* h : hosts)
        EXPECT_LE(h->engine->chosen_count(), 20u);
}

// A quorum loss (no fresh reports from enough members) must stall the
// floor, not regress it, and traffic resumed after heal prunes again.
TEST(RetentionTest, FloorStallsWithoutQuorumOfFreshReports) {
    Cluster c(retention_config(ProtocolKind::ftskeen, 1, 1, 23));
    const auto pruned = [&c] {
        return paxos_of(c, ProtocolKind::ftskeen, 0)->pruned_upto();
    };
    for (int i = 0; i < 10; ++i)
        c.multicast_at(milliseconds(5) + i * milliseconds(10), 0, {0});
    c.run_for(milliseconds(300));
    const std::uint64_t pruned_before = pruned();
    EXPECT_GT(pruned_before, 0u);
    // Cut the leader off from both followers: reports go stale, so the
    // floor must freeze even as the leader keeps ticking.
    c.world().at(c.world().now() + milliseconds(1), [&c] {
        c.world().sever_link(0, 1);
        c.world().sever_link(0, 2);
    });
    c.run_for(milliseconds(400));
    EXPECT_EQ(pruned(), pruned_before);
    c.world().at(c.world().now() + milliseconds(1), [&c] {
        c.world().restore_link(0, 1);
        c.world().restore_link(0, 2);
    });
    for (int i = 0; i < 5; ++i)
        c.multicast_at(c.world().now() + milliseconds(5) + i * milliseconds(10),
                       0, {0});
    c.run_for(milliseconds(400));
    EXPECT_GT(pruned(), pruned_before);
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(c.log().completed_count(), 15u);
}

// The two floors over one report table, each with its own rule.
TEST(DeliveredFloorTest, AppliedFloorNeedsAFreshQuorumDeliveredFloorAll) {
    const Duration window = 3 * gc_every;
    DeliveredFloor f({0, 1, 2}, 2);
    // One member alone is no quorum; two are, and the applied floor is
    // the minimum over them while the third has never reported.
    f.note(0, Timestamp{10, 0}, 40, 0);
    EXPECT_EQ(f.applied_floor(0, window), 0u);
    f.note(1, Timestamp{8, 0}, 30, 0);
    EXPECT_EQ(f.applied_floor(0, window), 30u);
    // The delivered floor waits for every member, however fresh.
    EXPECT_EQ(f.floor(), bottom_ts);
    f.note(2, Timestamp{5, 0}, 10, milliseconds(10));
    EXPECT_EQ(f.floor(), (Timestamp{5, 0}));
    // A fresh low report does not pull the applied floor back.
    EXPECT_EQ(f.applied_floor(milliseconds(10), window), 30u);
    // Members 0 and 1 go silent: once their reports are older than the
    // window, member 2 alone is no quorum and the floor freezes, even as
    // member 2 advances past it.
    f.note(2, Timestamp{50, 0}, 90, window + milliseconds(5));
    EXPECT_EQ(f.applied_floor(window + milliseconds(5), window), 30u);
    EXPECT_EQ(f.deepest(2, window + milliseconds(5), window), invalid_process);
    // The delivered floor has no freshness rule: stale reports still
    // count, and the slowest member pins it.
    EXPECT_EQ(f.floor(), (Timestamp{8, 0}));
    // Member 1 comes back: a fresh quorum again, and the floor moves on.
    f.note(1, Timestamp{60, 0}, 70, window + milliseconds(6));
    EXPECT_EQ(f.applied_floor(window + milliseconds(6), window), 70u);
    EXPECT_EQ(f.deepest(1, window + milliseconds(6), window), 2);
    EXPECT_EQ(f.floor(), (Timestamp{10, 0}));
}

}  // namespace
}  // namespace wbam
