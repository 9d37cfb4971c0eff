// The distributed benchmark plane (src/ctrl/): control-message codec
// round-trips and malformed-input rejection, the LatencySampler's
// window/drain semantics, and the full coordinator exchange — READY →
// RUN_SPEC → START → SAMPLE/DONE → STOP_LOAD → REPORT → SHUTDOWN — run
// end-to-end over real loopback TCP with one NetWorld per process, exactly
// the in-process twin of a wbamd --bench + wbamctl run deployment, and on
// the simulator through ctrl::run_in_sim (every row, the KV workload, and
// two runs of one seed that must agree).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "client/latency_sampler.hpp"
#include "ctrl/bench_plane.hpp"
#include "ctrl/sim_run.hpp"
#include "harness/live_cluster.hpp"

namespace wbam {
namespace {

using ctrl::BenchSpec;
using ctrl::CtrlMsgType;

// --- codec -------------------------------------------------------------------

template <typename T>
T reencode(const T& msg) {
    codec::Writer w;
    msg.encode(w);
    const Buffer buf = std::move(w).take_buffer();
    codec::Reader r{BufferSlice(buf)};
    T out = T::decode(r);
    r.expect_done();
    return out;
}

TEST(CtrlCodecTest, BenchSpecRoundTrip) {
    BenchSpec spec;
    spec.proto = harness::ProtocolKind::ftskeen;
    spec.dest_groups = 3;
    spec.payload = 200;
    spec.sessions = 7;
    spec.warmup = milliseconds(123);
    spec.measure = seconds(4);
    spec.sample_interval = milliseconds(77);
    spec.client_retry = milliseconds(450);
    spec.seed = 0xabcdef;
    spec.heartbeat_interval = milliseconds(25);
    spec.suspect_timeout = seconds(9);
    spec.retry_interval = milliseconds(321);
    spec.batching_enabled = true;
    spec.consensus_cmd_cost = microseconds(12);
    spec.wbcast_multicast_cost = microseconds(10);
    spec.wbcast_accept_cost = nanoseconds(500);

    const BenchSpec out = reencode(spec);
    EXPECT_EQ(out.proto, spec.proto);
    EXPECT_EQ(out.dest_groups, spec.dest_groups);
    EXPECT_EQ(out.payload, spec.payload);
    EXPECT_EQ(out.sessions, spec.sessions);
    EXPECT_EQ(out.warmup, spec.warmup);
    EXPECT_EQ(out.measure, spec.measure);
    EXPECT_EQ(out.sample_interval, spec.sample_interval);
    EXPECT_EQ(out.client_retry, spec.client_retry);
    EXPECT_EQ(out.seed, spec.seed);
    EXPECT_EQ(out.heartbeat_interval, spec.heartbeat_interval);
    EXPECT_EQ(out.suspect_timeout, spec.suspect_timeout);
    EXPECT_EQ(out.retry_interval, spec.retry_interval);
    EXPECT_EQ(out.batching_enabled, spec.batching_enabled);
    EXPECT_EQ(out.consensus_cmd_cost, spec.consensus_cmd_cost);
    EXPECT_EQ(out.wbcast_multicast_cost, spec.wbcast_multicast_cost);
    EXPECT_EQ(out.wbcast_accept_cost, spec.wbcast_accept_cost);

    const ReplicaConfig rc = out.replica_config();
    EXPECT_EQ(rc.heartbeat_interval, spec.heartbeat_interval);
    EXPECT_TRUE(rc.batching_enabled);
    EXPECT_EQ(rc.consensus_cmd_cost, spec.consensus_cmd_cost);
    EXPECT_EQ(rc.wbcast_multicast_cost, spec.wbcast_multicast_cost);
    EXPECT_EQ(rc.wbcast_accept_cost, spec.wbcast_accept_cost);
}

// Every proper prefix of a spec, a cut inside the cost-model fields
// included, is rejected rather than read as a shorter spec.
TEST(CtrlCodecTest, BenchSpecTruncationsRejected) {
    BenchSpec spec;
    spec.consensus_cmd_cost = microseconds(12);
    spec.wbcast_multicast_cost = microseconds(10);
    spec.wbcast_accept_cost = nanoseconds(500);
    const Bytes wire = codec::encode_to_bytes(spec);
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        const Bytes prefix(wire.begin(),
                           wire.begin() + static_cast<long>(cut));
        EXPECT_THROW(codec::decode_from_bytes<BenchSpec>(prefix),
                     codec::DecodeError)
            << "cut at " << cut << " of " << wire.size();
    }
}

TEST(CtrlCodecTest, BenchSpecKvWorkloadRoundTrip) {
    BenchSpec spec;
    spec.workload = ctrl::WorkloadKind::kv;
    spec.kv_keys = 5000;
    spec.kv_theta_milli = 850;
    spec.kv_read_pct = 60;
    spec.kv_cross_pct = 25;

    const BenchSpec out = reencode(spec);
    EXPECT_EQ(out.workload, ctrl::WorkloadKind::kv);
    EXPECT_EQ(out.kv_keys, 5000u);
    EXPECT_EQ(out.kv_theta_milli, 850u);
    EXPECT_EQ(out.kv_read_pct, 60u);
    EXPECT_EQ(out.kv_cross_pct, 25u);
}

TEST(CtrlCodecTest, DegenerateKvWorkloadRejected) {
    BenchSpec spec;
    spec.workload = ctrl::WorkloadKind::kv;
    spec.kv_read_pct = 70;
    spec.kv_cross_pct = 40;  // mix over 100%
    codec::Writer w;
    spec.encode(w);
    const Buffer buf = std::move(w).take_buffer();
    codec::Reader r{BufferSlice(buf)};
    EXPECT_THROW(BenchSpec::decode(r), codec::DecodeError);

    BenchSpec theta;
    theta.workload = ctrl::WorkloadKind::kv;
    theta.kv_theta_milli = 1000;  // theta must stay below 1
    codec::Writer w2;
    theta.encode(w2);
    const Buffer buf2 = std::move(w2).take_buffer();
    codec::Reader r2{BufferSlice(buf2)};
    EXPECT_THROW(BenchSpec::decode(r2), codec::DecodeError);
}

TEST(CtrlCodecTest, ReplicaDoneCarriesAppHash) {
    ctrl::ReplicaDoneMsg msg;
    msg.delivered = 12;
    msg.digest = 0xfeed;
    msg.app_hash = 0xbeef;
    const ctrl::ReplicaDoneMsg out = reencode(msg);
    EXPECT_EQ(out.delivered, 12u);
    EXPECT_EQ(out.digest, 0xfeedu);
    EXPECT_EQ(out.app_hash, 0xbeefu);
}

TEST(CtrlCodecTest, DegenerateSpecRejected) {
    BenchSpec spec;
    spec.sessions = 0;  // a driver with zero sessions can never finish
    codec::Writer w;
    spec.encode(w);
    const Buffer buf = std::move(w).take_buffer();
    codec::Reader r{BufferSlice(buf)};
    EXPECT_THROW(BenchSpec::decode(r), codec::DecodeError);

    BenchSpec cost;
    cost.wbcast_accept_cost = -1;  // a negative CPU charge
    EXPECT_THROW(codec::decode_from_bytes<BenchSpec>(
                     codec::encode_to_bytes(cost)),
                 codec::DecodeError);
}

TEST(CtrlCodecTest, SampleMsgRoundTripAndHostileCount) {
    ctrl::SampleMsg msg;
    msg.completed_in_window = 41;
    msg.latencies_ns = {microseconds(100), milliseconds(20), 0,
                        seconds(2)};
    const ctrl::SampleMsg out = reencode(msg);
    EXPECT_EQ(out.completed_in_window, 41u);
    EXPECT_EQ(out.latencies_ns, msg.latencies_ns);

    // A hostile count larger than the remaining body must not allocate.
    codec::Writer w;
    w.varint(1);
    w.varint(std::uint64_t{1} << 40);
    const Buffer buf = std::move(w).take_buffer();
    codec::Reader r{BufferSlice(buf)};
    EXPECT_THROW(ctrl::SampleMsg::decode(r), codec::DecodeError);
}

TEST(CtrlCodecTest, StartWindowOrderingEnforced) {
    ctrl::StartMsg start;
    start.window_open = milliseconds(10);
    start.window_close = milliseconds(5);
    codec::Writer w;
    start.encode(w);
    const Buffer buf = std::move(w).take_buffer();
    codec::Reader r{BufferSlice(buf)};
    EXPECT_THROW(ctrl::StartMsg::decode(r), codec::DecodeError);
}

TEST(CtrlCodecTest, DeliveryDigestIsOrderSensitive) {
    const MsgId a = make_msg_id(6, 1);
    const MsgId b = make_msg_id(6, 2);
    std::uint64_t ab = 0, ba = 0;
    ab = ctrl::fold_delivery_digest(ctrl::fold_delivery_digest(0, a), b);
    ba = ctrl::fold_delivery_digest(ctrl::fold_delivery_digest(0, b), a);
    EXPECT_NE(ab, ba);
    EXPECT_NE(ab, 0u);
}

// --- LatencySampler ----------------------------------------------------------

TEST(LatencySamplerTest, WindowAndDrainSemantics) {
    client::LatencySampler s;
    s.set_window(milliseconds(10), milliseconds(30));

    // Completes inside the window: counted, sampled, drainable.
    s.note_issue();
    EXPECT_EQ(s.outstanding(), 1u);
    s.note_completion(milliseconds(5), milliseconds(15));
    EXPECT_EQ(s.outstanding(), 0u);

    // Completes after the window closes: total but not in-window.
    s.note_issue();
    s.note_completion(milliseconds(20), milliseconds(31));

    // Still in flight: outstanding, neither total nor in-window.
    s.note_issue();

    EXPECT_EQ(s.completed_in_window(), 1u);
    EXPECT_EQ(s.completed_total(), 2u);
    EXPECT_EQ(s.outstanding(), 1u);
    const auto drained = s.drain_samples();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0], milliseconds(10));  // 15 - 5
    EXPECT_TRUE(s.drain_samples().empty());  // drained means drained
    EXPECT_EQ(s.latency().count(), 1u);      // histogram keeps the sample
}

// --- end-to-end over loopback TCP -------------------------------------------

struct BenchFixture {
    // 2 groups x 3 replicas + 2 drivers + 1 coordinator = 9 OS-process
    // equivalents, each its own NetWorld over loopback TCP.
    Topology topo{2, 3, 3};
    std::vector<std::atomic<bool>> flags;
    ctrl::Coordinator* coordinator = nullptr;
    std::vector<ctrl::NodeShim*> shims;
    std::vector<std::unique_ptr<net::NetWorld>> worlds;

    explicit BenchFixture(const ctrl::CoordinatorConfig& ccfg,
                          std::uint64_t seed = 1)
        : flags(static_cast<std::size_t>(topo.num_processes())) {
        const ProcessId coord_pid = topo.client(topo.num_clients() - 1);
        auto factory = [&](ProcessId p) -> std::unique_ptr<Process> {
            if (topo.is_replica(p)) {
                auto shim = std::make_unique<ctrl::NodeShim>(
                    topo, p, coord_pid, &flags[static_cast<std::size_t>(p)]);
                shims.push_back(shim.get());
                return shim;
            }
            if (p == coord_pid) {
                auto c = std::make_unique<ctrl::Coordinator>(topo, ccfg);
                coordinator = c.get();
                return c;
            }
            return std::make_unique<ctrl::BenchDriver>(
                topo, coord_pid, &flags[static_cast<std::size_t>(p)]);
        };
        worlds = harness::make_loopback_worlds(topo, seed, factory);
        for (auto& w : worlds) w->start();
    }

    bool await_finished(Duration timeout) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::nanoseconds(timeout);
        while (!coordinator->finished()) {
            if (std::chrono::steady_clock::now() >= deadline) return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return true;
    }

    void shutdown() {
        for (auto& w : worlds) w->shutdown();
    }
};

ctrl::CoordinatorConfig quick_config() {
    ctrl::CoordinatorConfig ccfg;
    ccfg.spec.proto = harness::ProtocolKind::wbcast;
    ccfg.spec.dest_groups = 2;
    ccfg.spec.sessions = 2;
    ccfg.spec.payload = 20;
    ccfg.spec.warmup = milliseconds(150);
    ccfg.spec.measure = milliseconds(500);
    ccfg.spec.sample_interval = milliseconds(100);
    ccfg.spec.client_retry = milliseconds(300);
    // make_loopback_worlds gives every world one shared epoch, the same
    // contract the deployment driver provides via --epoch-ns.
    ccfg.shared_epoch = true;
    ccfg.quiesce = milliseconds(300);
    ccfg.deadline = seconds(60);
    return ccfg;
}

TEST(CtrlPlaneTest, DistributedRunProducesMergedValidatedResult) {
    BenchFixture fx(quick_config(), 211);
    ASSERT_TRUE(fx.await_finished(seconds(90)))
        << "coordinator stuck: " << fx.coordinator->error();
    fx.shutdown();

    ASSERT_TRUE(fx.coordinator->succeeded()) << fx.coordinator->error();
    const harness::FigPoint pt = fx.coordinator->result_point();
    EXPECT_EQ(pt.clients, 4);  // 2 drivers x 2 sessions
    EXPECT_GT(pt.ops, 0u);
    EXPECT_GT(pt.throughput_ops_s, 0.0);
    EXPECT_GT(pt.p50_ms, 0.0);
    EXPECT_GE(pt.p99_ms, pt.p50_ms);
    // Every in-window completion was streamed as a raw sample, so merged
    // percentiles are computed over the exact sample population.
    EXPECT_EQ(fx.coordinator->result().samples_streamed, pt.ops);
    EXPECT_EQ(fx.coordinator->merged_latency().count(), pt.ops);

    // SHUTDOWN reached every node (the coordinator's own slot stays off).
    const auto coord_slot = static_cast<std::size_t>(
        fx.topo.client(fx.topo.num_clients() - 1));
    for (std::size_t i = 0; i < fx.flags.size(); ++i) {
        if (i == coord_slot) continue;
        EXPECT_TRUE(fx.flags[i].load()) << "no SHUTDOWN at pid " << i;
    }

    // Replicas of one group recorded identical sequences (the property
    // the coordinator's digest check certifies).
    ASSERT_EQ(fx.shims.size(), 6u);
    for (GroupId g = 0; g < fx.topo.num_groups(); ++g) {
        const auto& members = fx.topo.members(g);
        const auto first =
            fx.shims[static_cast<std::size_t>(members.front())]->deliveries();
        EXPECT_FALSE(first.empty());
        for (const ProcessId p : members)
            EXPECT_EQ(fx.shims[static_cast<std::size_t>(p)]->deliveries(),
                      first)
                << "replica p" << p << " diverges in group " << g;
    }
}

// The scale-out workload end to end: drivers issue zipfian KV ops whose
// destinations come from key placement, replicas apply them into their
// shard, and the coordinator's REPLICA_DONE check now certifies the
// APPLICATION state hash per group on top of the delivery digest.
TEST(CtrlPlaneTest, KvWorkloadRunValidatesAppState) {
    ctrl::CoordinatorConfig ccfg = quick_config();
    ccfg.spec.workload = ctrl::WorkloadKind::kv;
    ccfg.spec.kv_keys = 100;
    ccfg.spec.kv_theta_milli = 990;
    ccfg.spec.kv_read_pct = 40;
    ccfg.spec.kv_cross_pct = 20;
    BenchFixture fx(ccfg, 229);
    ASSERT_TRUE(fx.await_finished(seconds(90)))
        << "coordinator stuck: " << fx.coordinator->error();
    fx.shutdown();
    ASSERT_TRUE(fx.coordinator->succeeded()) << fx.coordinator->error();
    const harness::FigPoint pt = fx.coordinator->result_point();
    EXPECT_GT(pt.ops, 0u);
    EXPECT_GT(pt.throughput_ops_s, 0.0);
}

TEST(CtrlPlaneTest, RelativeWindowsWorkWithoutSharedEpoch) {
    ctrl::CoordinatorConfig ccfg = quick_config();
    ccfg.shared_epoch = false;  // ssh-mode semantics: windows open on receipt
    ccfg.spec.proto = harness::ProtocolKind::fastcast;
    BenchFixture fx(ccfg, 223);
    ASSERT_TRUE(fx.await_finished(seconds(90)))
        << "coordinator stuck: " << fx.coordinator->error();
    fx.shutdown();
    ASSERT_TRUE(fx.coordinator->succeeded()) << fx.coordinator->error();
    EXPECT_GT(fx.coordinator->result_point().ops, 0u);
}

// --- the same exchange on the simulator --------------------------------------

// The coordinator compares each group's (count, digest) once the quiesce
// ends. Drivers run closed loops past their own windows; were they to
// keep issuing until SHUTDOWN, replicas would answer REPORT a few
// deliveries apart (a follower trails its leader by a hop) and a run
// would live on re-polls. STOP_LOAD at the last DRIVER_DONE lets the tail
// drain during the quiesce, so the first REPORT must already agree, on
// every row, under sustained closed-loop load.
class CtrlPlaneSimTest
    : public ::testing::TestWithParam<harness::ProtocolKind> {};

ctrl::CoordinatorConfig sim_config(harness::ProtocolKind proto) {
    ctrl::CoordinatorConfig ccfg = quick_config();
    ccfg.spec.proto = proto;
    ccfg.spec.sessions = 4;
    ccfg.spec.heartbeat_interval = milliseconds(20);
    ccfg.report_attempts = 1;
    ccfg.deadline = seconds(20);
    return ccfg;
}

ctrl::RunResult run_sim(const ctrl::CoordinatorConfig& ccfg,
                        sim::CpuModel cpu = {}) {
    return ctrl::run_in_sim(Topology{2, 3, 3}, ccfg,
                            std::make_unique<sim::JitterDelay>(
                                microseconds(100), microseconds(50)),
                            cpu, 17);
}

TEST_P(CtrlPlaneSimTest, FirstReportAgreesUnderSustainedLoad) {
    const ctrl::RunResult r = run_sim(sim_config(GetParam()));
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.point.ops, 0u);
}

// The same seed gives the same run: one simulated clock, workload draws
// from the spec's seed, and no wall-clock input anywhere in the loop.
// Exercised with the cost model on, so the BenchSpec cost fields reach
// the replicas' Context::charge.
TEST(CtrlPlaneSimDeterminismTest, SameSeedSameResult) {
    ctrl::CoordinatorConfig ccfg = sim_config(harness::ProtocolKind::ftskeen);
    ccfg.spec.consensus_cmd_cost = microseconds(12);
    const sim::CpuModel cpu{.per_message = nanoseconds(300),
                            .per_byte = nanoseconds(2),
                            .wakeup = microseconds(3)};
    const ctrl::RunResult a = run_sim(ccfg, cpu);
    const ctrl::RunResult b = run_sim(ccfg, cpu);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_GT(a.point.ops, 0u);
    EXPECT_EQ(a.point, b.point);
    ASSERT_EQ(a.groups.size(), 2u);
    EXPECT_EQ(a.groups, b.groups);

    // The cost model is live: the same run without it is a different run.
    ccfg.spec.consensus_cmd_cost = 0;
    EXPECT_NE(run_sim(ccfg, cpu).point, a.point);
}

// The KV workload in sim: NodeShim applies the zipfian ops into its shard,
// and the coordinator's check covers each group's application-state hash.
TEST(CtrlPlaneSimKvTest, AppStateHashValidates) {
    ctrl::CoordinatorConfig ccfg = sim_config(harness::ProtocolKind::wbcast);
    ccfg.spec.workload = ctrl::WorkloadKind::kv;
    ccfg.spec.kv_keys = 100;
    ccfg.spec.kv_read_pct = 40;
    ccfg.spec.kv_cross_pct = 20;
    const ctrl::RunResult r = run_sim(ccfg);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.point.ops, 0u);
    ASSERT_EQ(r.groups.size(), 2u);
    for (GroupId g = 0; g < 2; ++g) {
        EXPECT_GT(r.groups[g].delivered, 0u);
        // Ops were applied, not just delivered: not an empty shard's hash.
        EXPECT_NE(r.groups[g].app_hash, kv::ShardState(g, 2).state_hash());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRows, CtrlPlaneSimTest,
    ::testing::Values(harness::ProtocolKind::wbcast,
                      harness::ProtocolKind::ftskeen,
                      harness::ProtocolKind::fastcast),
    [](const auto& info) {
        std::string name = harness::to_string(info.param);
        std::erase(name, '-');  // "FT-Skeen" is not a test name
        return name;
    });

}  // namespace
}  // namespace wbam
