// Substrate-level tests added alongside the benchmark cost model: CPU
// charge accounting, idle-wakeup amortization, shared-buffer fan-out,
// staggered leader topology, and the delivery-log bookkeeping that the
// experiments rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>

#include "harness/cluster.hpp"
#include "multicast/delivery_log.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"
#include "test_util.hpp"
#include "wal/hold_context.hpp"

namespace wbam {
namespace {

class Sponge final : public Process {
public:
    void on_start(Context& c) override { ctx = &c; }
    void on_message(Context& c, ProcessId, const BufferSlice& b) override {
        if (charge_per_message > 0) c.charge(charge_per_message);
        received.push_back({c.now(), b});
    }
    void on_timer(Context&, TimerId) override {}

    Context* ctx = nullptr;
    Duration charge_per_message = 0;
    std::vector<std::pair<TimePoint, BufferSlice>> received;
};

struct SpongeWorld {
    explicit SpongeWorld(int n, sim::CpuModel cpu,
                         Duration delta = milliseconds(1))
        : world(Topology(1, 1, n - 1),
                std::make_unique<sim::UniformDelay>(delta), 1, cpu) {
        for (ProcessId p = 0; p < n; ++p) {
            auto s = std::make_unique<Sponge>();
            sponges.push_back(s.get());
            world.add_process(p, std::move(s));
        }
        world.start();
    }
    sim::World world;
    std::vector<Sponge*> sponges;
};

TEST(CpuModelTest, WakeupPaidOnlyWhenIdle) {
    // Two back-to-back messages: the first pays wakeup + per_message, the
    // second (arriving while busy) only per_message.
    SpongeWorld w(2, sim::CpuModel{.per_message = microseconds(10),
                                   .per_byte = 0,
                                   .wakeup = microseconds(100)});
    w.world.at(0, [&] {
        w.sponges[0]->ctx->send(1, Bytes{1});
        w.sponges[0]->ctx->send(1, Bytes{2});
    });
    w.world.run_for(milliseconds(5));
    ASSERT_EQ(w.sponges[1]->received.size(), 2u);
    EXPECT_EQ(w.sponges[1]->received[0].first,
              milliseconds(1) + microseconds(110));
    EXPECT_EQ(w.sponges[1]->received[1].first,
              milliseconds(1) + microseconds(120));
    // Busy-time accounting matches: 110us + 10us.
    EXPECT_EQ(w.world.busy_time_of(1), microseconds(120));
}

TEST(CpuModelTest, WakeupPaidAgainAfterIdleGap) {
    SpongeWorld w(2, sim::CpuModel{.per_message = microseconds(10),
                                   .per_byte = 0,
                                   .wakeup = microseconds(100)});
    w.world.at(0, [&] { w.sponges[0]->ctx->send(1, Bytes{1}); });
    w.world.at(milliseconds(10), [&] { w.sponges[0]->ctx->send(1, Bytes{2}); });
    w.world.run_for(milliseconds(20));
    ASSERT_EQ(w.sponges[1]->received.size(), 2u);
    // Both messages found the process idle: both pay the wakeup.
    EXPECT_EQ(w.world.busy_time_of(1), 2 * microseconds(110));
}

TEST(CpuModelTest, ChargeExtendsBusyPeriod) {
    // The handler self-charges 50us; a message arriving inside that period
    // queues behind it.
    SpongeWorld w(3, sim::CpuModel{.per_message = microseconds(1),
                                   .per_byte = 0,
                                   .wakeup = 0});
    w.sponges[2]->charge_per_message = microseconds(50);
    w.world.at(0, [&] { w.sponges[0]->ctx->send(2, Bytes{1}); });
    // Arrives at 1.030ms, inside the first handler's 50us charge window.
    w.world.at(microseconds(30), [&] { w.sponges[1]->ctx->send(2, Bytes{2}); });
    w.world.run_for(milliseconds(5));
    ASSERT_EQ(w.sponges[2]->received.size(), 2u);
    // First handled at 1ms + 1us (charge applies during the handler).
    EXPECT_EQ(w.sponges[2]->received[0].first, milliseconds(1) + microseconds(1));
    // Second queues behind the charge: busy until 1.051ms, then +1us cost.
    EXPECT_EQ(w.sponges[2]->received[1].first,
              milliseconds(1) + microseconds(52));
}

TEST(SendManyTest, SharedBufferReachesAllRecipients) {
    SpongeWorld w(4, sim::CpuModel{});
    w.world.enable_send_trace(true);
    w.world.at(0, [&] { w.sponges[0]->ctx->send_many({1, 2, 3}, Bytes{7}); });
    w.world.run_for(milliseconds(5));
    for (int p = 1; p <= 3; ++p) {
        ASSERT_EQ(w.sponges[static_cast<std::size_t>(p)]->received.size(), 1u);
        EXPECT_EQ(w.sponges[static_cast<std::size_t>(p)]->received[0].second,
                  Bytes{7});
    }
    EXPECT_EQ(w.world.send_trace().size(), 3u);  // one record per recipient
}

TEST(SendManyTest, RespectsPartitions) {
    SpongeWorld w(3, sim::CpuModel{});
    w.world.at(0, [&] { w.world.block_link(0, 2); });
    w.world.at(milliseconds(1), [&] {
        w.sponges[0]->ctx->send_many({1, 2}, Bytes{9});
    });
    w.world.run_for(milliseconds(10));
    EXPECT_EQ(w.sponges[1]->received.size(), 1u);
    EXPECT_TRUE(w.sponges[2]->received.empty());
    // Heal: the held copy is delivered (reliable channels).
    w.world.at(w.world.now() + milliseconds(1),
               [&] { w.world.unblock_link(0, 2); });
    w.world.run_for(milliseconds(10));
    EXPECT_EQ(w.sponges[2]->received.size(), 1u);
}

TEST(SendManyTest, FanOutSharesStorageWithoutCopies) {
    SpongeWorld w(4, sim::CpuModel{});
    // buffer_stats is process-global and shared with every other test in
    // this binary: assert on a scoped delta, not absolute values.
    const obs::CounterDelta delta;
    w.world.at(0, [&] {
        codec::Writer enc;
        enc.str("shared fan-out image");
        w.sponges[0]->ctx->send_many({1, 2, 3}, std::move(enc).take_buffer());
    });
    w.world.run_for(milliseconds(5));
    // Zero payload bytes copied end to end; all recipients alias one buffer.
    EXPECT_EQ(delta("buffer/bytes_copied"), 0u);
    ASSERT_EQ(w.sponges[1]->received.size(), 1u);
    EXPECT_TRUE(same_storage(w.sponges[1]->received[0].second,
                             w.sponges[2]->received[0].second));
    EXPECT_TRUE(same_storage(w.sponges[1]->received[0].second,
                             w.sponges[3]->received[0].second));
}

// --- held sends: the WAL gate ------------------------------------------------

// Records every send that reaches it.
class RecordingContext final : public Context {
public:
    ProcessId self() const override { return 0; }
    TimePoint now() const override { return 0; }
    void send(ProcessId to, BufferSlice bytes) override {
        sent.emplace_back(to, std::move(bytes));
    }
    TimerId set_timer(Duration) override { return invalid_timer; }
    void cancel_timer(TimerId) override {}
    Rng& rng() override { return rng_; }

    std::vector<std::pair<ProcessId, BufferSlice>> sent;

private:
    Rng rng_{1};
};

Buffer tagged(std::uint8_t module, std::uint8_t tag) {
    codec::Writer w;
    w.u8(module);
    w.u8(tag);
    w.varint(invalid_msg);
    return std::move(w).take_buffer();
}

TEST(HeldSendTest, NothingLeavesBeforeRelease) {
    RecordingContext inner;
    wal::HoldContext held(inner);
    held.send(3, tagged(1, 7));
    held.send_many({1, 2}, tagged(1, 8));
    EXPECT_TRUE(inner.sent.empty());
    held.release();
    EXPECT_EQ(inner.sent.size(), 3u);
    // Released means released: a second release sends nothing again.
    held.release();
    EXPECT_EQ(inner.sent.size(), 3u);
}

TEST(HeldSendTest, SendOrderKeptOneFramePerSend) {
    RecordingContext inner;
    const Buffer fan = tagged(1, 2);
    {
        wal::HoldContext held(inner);
        held.send(2, tagged(1, 0));
        held.send(1, tagged(1, 1));
        held.send_many({3, 2}, fan);
        held.send(1, tagged(1, 3));
        held.release();
    }
    // Every send leaves as its own frame, in the order it was made, not
    // grouped by destination.
    const std::vector<std::pair<ProcessId, std::uint8_t>> want{
        {2, 0}, {1, 1}, {3, 2}, {2, 2}, {1, 3}};
    ASSERT_EQ(inner.sent.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(inner.sent[i].first, want[i].first) << "send " << i;
        EXPECT_EQ(inner.sent[i].second,
                  BufferSlice(tagged(1, want[i].second)))
            << "send " << i;
    }
    // The fan-out recipients share the one image, as unheld sends do.
    EXPECT_TRUE(same_storage(inner.sent[2].second, BufferSlice(fan)));
    EXPECT_TRUE(same_storage(inner.sent[3].second, BufferSlice(fan)));
}

TEST(HeldSendTest, UnreleasedSendsAreDropped) {
    // A handler that throws never reaches release().
    RecordingContext inner;
    {
        wal::HoldContext held(inner);
        held.send(1, tagged(1, 0));
    }
    EXPECT_TRUE(inner.sent.empty());
}

// End-to-end: a WAL-backed wbcast cluster still checker-verifies, and its
// delivery schedule is deterministic run to run.
std::vector<std::tuple<ProcessId, TimePoint, MsgId>> run_durable_wbcast(
    std::uint64_t seed) {
    harness::ClusterConfig cfg;
    cfg.kind = harness::ProtocolKind::wbcast;
    cfg.groups = 3;
    cfg.group_size = 3;
    cfg.clients = 2;
    cfg.seed = seed;
    testutil::WalSet wals(9, "substrate_wbcast", wal::SyncMode::off);
    wals.attach(cfg);
    harness::Cluster c(cfg);
    Rng rng(seed * 31);
    testutil::random_workload(c, rng, 40, milliseconds(50), 3);
    c.run_for(seconds(2));
    EXPECT_TRUE(c.check().ok()) << c.check().summary();
    std::vector<std::tuple<ProcessId, TimePoint, MsgId>> deliveries;
    for (const auto& [replica, events] : c.log().deliveries())
        for (const DeliveryEvent& ev : events)
            deliveries.emplace_back(replica, ev.at, ev.msg);
    std::sort(deliveries.begin(), deliveries.end());
    return deliveries;
}

TEST(HeldSendTest, DurableWbcastIsCorrectAndDeterministic) {
    const auto a = run_durable_wbcast(11);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, run_durable_wbcast(11));
}

TEST(HeldSendTest, DurableBaselinesStillCheckerVerify) {
    for (const auto kind :
         {harness::ProtocolKind::ftskeen, harness::ProtocolKind::fastcast}) {
        harness::ClusterConfig cfg;
        cfg.kind = kind;
        cfg.groups = 2;
        cfg.group_size = 3;
        cfg.clients = 1;
        cfg.seed = 5;
        testutil::WalSet wals(6, "substrate_" + testutil::row_name(kind),
                              wal::SyncMode::off);
        wals.attach(cfg);
        harness::Cluster c(cfg);
        Rng rng(17);
        testutil::random_workload(c, rng, 15, milliseconds(40), 2);
        c.run_for(seconds(3));
        EXPECT_TRUE(c.check().ok())
            << harness::to_string(kind) << ": " << c.check().summary();
    }
}

// The gate itself, on every WAL row: the replica is handed a Context
// that counts each send leaving while the replica's log still holds
// uncommitted records. A replica commits before it releases what its
// handler sent, so the count stays zero — through steady load, GC, and a
// follower's and a leader's restart from the log.
struct GateLedger {
    std::size_t sends = 0;
    std::size_t early = 0;  // sends that left ahead of their records
    std::string first_early;
};

class GateCheckContext final : public Context {
public:
    GateCheckContext(Context& inner, const wal::Log& log, GateLedger& ledger)
        : inner_(inner), log_(log), ledger_(ledger) {}

    ProcessId self() const override { return inner_.self(); }
    TimePoint now() const override { return inner_.now(); }
    void send(ProcessId to, BufferSlice bytes) override {
        ++ledger_.sends;
        if (log_.pending_records() != 0 && ledger_.early++ == 0) {
            std::ostringstream os;
            os << "p" << self() << " sent to p" << to << " at " << now()
               << " ns with " << log_.pending_records()
               << " uncommitted records";
            ledger_.first_early = os.str();
        }
        inner_.send(to, std::move(bytes));
    }
    TimerId set_timer(Duration delay) override { return inner_.set_timer(delay); }
    void cancel_timer(TimerId id) override { inner_.cancel_timer(id); }
    Rng& rng() override { return inner_.rng(); }
    void charge(Duration cpu_work) override { inner_.charge(cpu_work); }

private:
    Context& inner_;
    const wal::Log& log_;
    GateLedger& ledger_;
};

class GateWatch final : public Process {
public:
    GateWatch(std::unique_ptr<Process> inner, const wal::Log& log,
              GateLedger& ledger)
        : inner_(std::move(inner)), log_(log), ledger_(ledger) {}

    void on_start(Context& ctx) override {
        GateCheckContext gate(ctx, log_, ledger_);
        inner_->on_start(gate);
    }
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override {
        GateCheckContext gate(ctx, log_, ledger_);
        inner_->on_message(gate, from, bytes);
    }
    void on_timer(Context& ctx, TimerId id) override {
        GateCheckContext gate(ctx, log_, ledger_);
        inner_->on_timer(gate, id);
    }

private:
    std::unique_ptr<Process> inner_;
    const wal::Log& log_;
    GateLedger& ledger_;
};

class WalGateTest : public ::testing::TestWithParam<harness::ProtocolKind> {};

TEST_P(WalGateTest, NoSendLeavesAheadOfItsRecords) {
    const harness::ProtocolKind kind = GetParam();
    testutil::WalSet wals(6, "substrate_gate_" + testutil::row_name(kind),
                          wal::SyncMode::off);
    GateLedger ledger;
    harness::ClusterConfig cfg;
    cfg.kind = kind;
    cfg.groups = 2;
    cfg.group_size = 3;
    cfg.clients = 1;
    cfg.seed = 7;
    cfg.replica.heartbeat_interval = milliseconds(5);
    cfg.replica.suspect_timeout = milliseconds(20);
    cfg.replica.retry_interval = milliseconds(25);
    cfg.replica.gc_interval = milliseconds(50);
    cfg.client_retry = milliseconds(50);
    wals.attach(cfg);
    cfg.wrap_replica = [&wals, &ledger](ProcessId p,
                                        std::unique_ptr<Process> r) {
        return std::make_unique<GateWatch>(std::move(r), *wals.log(p), ledger);
    };
    harness::Cluster c(cfg);
    for (int i = 0; i < 300; ++i) {
        std::vector<GroupId> dests = i % 3 == 0   ? std::vector<GroupId>{0}
                                     : i % 3 == 1 ? std::vector<GroupId>{1}
                                                  : std::vector<GroupId>{0, 1};
        c.multicast_at(milliseconds(2) * (i + 1), 0, std::move(dests),
                       Bytes{static_cast<std::uint8_t>(i)});
    }
    const auto kill_and_restart = [&](ProcessId p, TimePoint kill,
                                      TimePoint restart) {
        c.world().at(kill, [&c, p] { c.world().crash(p); });
        c.world().at(restart, [&c, &wals, p] {
            wals.kill_and_reopen(p);
            c.restart_replica(p);
        });
    };
    kill_and_restart(c.topo().member(1, 1), milliseconds(150),
                     milliseconds(180));
    kill_and_restart(c.topo().initial_leader(0), milliseconds(300),
                     milliseconds(340));
    c.run_until(seconds(2));

    EXPECT_EQ(ledger.early, 0u) << ledger.first_early;
    EXPECT_GT(ledger.sends, 3000u);
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(c.log().completed_count(), c.log().multicasts().size());
}

INSTANTIATE_TEST_SUITE_P(WalRows, WalGateTest,
                         ::testing::Values(harness::ProtocolKind::wbcast,
                                           harness::ProtocolKind::ftskeen,
                                           harness::ProtocolKind::fastcast),
                         [](const auto& info) {
                             return testutil::row_name(info.param);
                         });

TEST(TopologyTest, StaggeredLeadersRotateAcrossIndices) {
    const Topology t(5, 3, 0, /*staggered_leaders=*/true);
    EXPECT_EQ(t.leader_index_of(0), 0);
    EXPECT_EQ(t.leader_index_of(1), 1);
    EXPECT_EQ(t.leader_index_of(2), 2);
    EXPECT_EQ(t.leader_index_of(3), 0);  // wraps at group_size
    EXPECT_EQ(t.initial_leader(1), t.member(1, 1));
    const auto order = t.members_leader_first(1);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], t.member(1, 1));
    EXPECT_EQ(order[1], t.member(1, 2));
    EXPECT_EQ(order[2], t.member(1, 0));
}

TEST(TopologyTest, DefaultLeadersAreMemberZero) {
    const Topology t(3, 5, 0);
    for (GroupId g = 0; g < 3; ++g) {
        EXPECT_EQ(t.leader_index_of(g), 0);
        EXPECT_EQ(t.members_leader_first(g), t.members(g));
    }
}

TEST(DeliveryLogTest, LatencyIsSlowestGroupFirstDelivery) {
    DeliveryLog log;
    const AppMessage m = make_app_message(make_msg_id(5, 0), {0, 1}, {});
    log.note_multicast(milliseconds(10), 5, m);
    EXPECT_FALSE(log.multicasts().at(m.id).partially_delivered());
    log.note_delivery(milliseconds(13), 0, 0, m);
    log.note_delivery(milliseconds(14), 1, 0, m);  // later copy, same group
    EXPECT_FALSE(log.multicasts().at(m.id).partially_delivered());
    log.note_delivery(milliseconds(16), 3, 1, m);
    const auto& rec = log.multicasts().at(m.id);
    ASSERT_TRUE(rec.partially_delivered());
    // First delivery per group: g0 at 13, g1 at 16 -> latency 6ms.
    EXPECT_EQ(rec.delivery_latency(), milliseconds(6));
    EXPECT_EQ(log.completed_count(), 1u);
    EXPECT_EQ(log.total_deliveries(), 3u);
}

TEST(DeliveryLogTest, RetriedMulticastKeepsFirstTimestamp) {
    DeliveryLog log;
    const AppMessage m = make_app_message(make_msg_id(5, 0), {0}, {});
    log.note_multicast(milliseconds(10), 5, m);
    log.note_multicast(milliseconds(50), 5, m);  // client retry
    EXPECT_EQ(log.multicasts().at(m.id).multicast_at, milliseconds(10));
}

}  // namespace
}  // namespace wbam
