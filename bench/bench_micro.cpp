// Microbenchmarks of the substrate primitives (google-benchmark): codec
// round-trips, envelope parsing, the codec+fanout copy comparison against
// the seed's copy-per-recipient wire path, simulator event throughput, and
// histogram operations. These have no counterpart figure in the paper;
// they document the cost floor of the simulation substrate.
//
// Besides the usual benchmark table, the binary writes BENCH_micro.json
// (override the path with BENCH_MICRO_JSON) with the fan-out byte-copy
// accounting, so the perf trajectory of the wire path is machine-readable
// across PRs.
#include <sys/socket.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "codec/wire.hpp"
#include "fastcast/fastcast.hpp"
#include "ftskeen/ftskeen.hpp"
#include "harness/cluster.hpp"
#include "harness/live_cluster.hpp"
#include "common/process.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "multicast/message.hpp"
#include "multicast/replica_core.hpp"
#include "net/frame.hpp"
#include "net/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/stage.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"
#include "stats/histogram.hpp"
#include "wal/log.hpp"
#include "wbcast/messages.hpp"
#include "wbcast/protocol.hpp"

namespace wbam {
namespace {

void BM_CodecVarint(benchmark::State& state) {
    Rng rng(1);
    std::vector<std::uint64_t> values(1024);
    for (auto& v : values) v = rng.next_u64() >> rng.next_below(64);
    for (auto _ : state) {
        codec::Writer w;
        for (const auto v : values) w.varint(v);
        codec::Reader r(w.buffer());
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < values.size(); ++i) sum += r.varint();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_CodecVarint);

void BM_AppMessageRoundTrip(benchmark::State& state) {
    const AppMessage m = make_app_message(
        make_msg_id(42, 7), {0, 3, 5},
        Bytes(static_cast<std::size_t>(state.range(0)), 0xab));
    for (auto _ : state) {
        const Bytes wire = codec::encode_to_bytes(m);
        const AppMessage out = codec::decode_from_bytes<AppMessage>(wire);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AppMessageRoundTrip)->Arg(20)->Arg(256)->Arg(4096);

void BM_AcceptMsgRoundTrip(benchmark::State& state) {
    const wbcast::AcceptMsg a{
        make_app_message(make_msg_id(1, 1), {0, 1, 2}, Bytes(20, 0x77)), 1,
        Ballot{3, 4}, Timestamp{99, 1}};
    for (auto _ : state) {
        const Buffer wire = codec::encode_envelope(
            codec::Module::proto,
            static_cast<std::uint8_t>(wbcast::MsgType::accept), a.msg.id, a);
        codec::EnvelopeView env(wire);
        const auto out = wbcast::AcceptMsg::decode(env.body);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AcceptMsgRoundTrip);

void BM_EnvelopePeek(benchmark::State& state) {
    const Buffer wire = codec::encode_envelope(
        codec::Module::proto, 2, make_msg_id(7, 9),
        wbcast::GcStatusMsg{Timestamp{5, 1}});
    for (auto _ : state) {
        codec::EnvelopeView env(wire);
        benchmark::DoNotOptimize(env.about);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnvelopePeek);

// --- codec + fan-out copy comparison ----------------------------------------
//
// The paper's Fig. 7/8 throughput ceiling is the leaders' serial encode +
// fan-out cost. A 3-group ACCEPT touches every member of every destination
// group (9 recipients here). The seed's wire path made one full payload
// copy per recipient (Context::send_many's default copied Bytes per
// destination); the shared-buffer substrate freezes one image and fans out
// refcounted slices. Both paths are measured through the same mock context
// and accounted with buffer_stats.

// Sink standing in for a runtime: retains slices like the real runtimes do.
class CollectContext final : public Context {
public:
    ProcessId self() const override { return 0; }
    TimePoint now() const override { return 0; }
    void send(ProcessId, BufferSlice bytes) override {
        inboxes.push_back(std::move(bytes));
    }
    TimerId set_timer(Duration) override { return invalid_timer; }
    void cancel_timer(TimerId) override {}
    Rng& rng() override { return rng_; }

    std::vector<BufferSlice> inboxes;

private:
    Rng rng_{1};
};

wbcast::AcceptMsg fanout_accept(std::size_t payload_size) {
    return wbcast::AcceptMsg{
        make_app_message(make_msg_id(1, 1), {0, 1, 2},
                         Bytes(payload_size, 0xab)),
        0, Ballot{1, 0}, Timestamp{7, 0}};
}

constexpr int fanout_recipients = 9;  // 3 destination groups x 3 members

// Seed-equivalent path: encode to Bytes, then duplicate the wire image for
// every recipient (what the pre-refactor Context::send_many default did).
void fanout_seed_style(const wbcast::AcceptMsg& a, CollectContext& ctx) {
    codec::Writer w;
    w.u8(static_cast<std::uint8_t>(codec::Module::proto));
    w.u8(static_cast<std::uint8_t>(wbcast::MsgType::accept));
    w.varint(a.msg.id);
    a.encode(w);
    const Bytes wire = std::move(w).take();
    for (int p = 0; p < fanout_recipients; ++p)
        ctx.send(p, wire);  // lvalue Bytes -> counted per-recipient copy
}

// Shared-buffer path: freeze one image, fan out slices.
void fanout_shared(const wbcast::AcceptMsg& a, CollectContext& ctx) {
    const Buffer wire = codec::encode_envelope(
        codec::Module::proto, static_cast<std::uint8_t>(wbcast::MsgType::accept),
        a.msg.id, a);
    std::vector<ProcessId> recipients(fanout_recipients);
    for (int p = 0; p < fanout_recipients; ++p) recipients[p] = p;
    ctx.send_many(recipients, wire);
}

void BM_AcceptFanoutSeedStyle(benchmark::State& state) {
    const auto a = fanout_accept(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        CollectContext ctx;
        fanout_seed_style(a, ctx);
        benchmark::DoNotOptimize(ctx.inboxes);
    }
    state.SetItemsProcessed(state.iterations() * fanout_recipients);
}
BENCHMARK(BM_AcceptFanoutSeedStyle)->Arg(20)->Arg(1024)->Arg(4096);

void BM_AcceptFanoutShared(benchmark::State& state) {
    const auto a = fanout_accept(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        CollectContext ctx;
        fanout_shared(a, ctx);
        benchmark::DoNotOptimize(ctx.inboxes);
    }
    state.SetItemsProcessed(state.iterations() * fanout_recipients);
}
BENCHMARK(BM_AcceptFanoutShared)->Arg(20)->Arg(1024)->Arg(4096);

// --- decode-side delivery comparison -----------------------------------------
//
// PR 1 removed the send-side copies; the decode side still copied once per
// recipient while AppMessage::payload was owned Bytes. With payload as a
// BufferSlice, every recipient's delivered payload is a zero-copy view of
// the one shared wire buffer. The owned-style path below re-enacts the old
// behaviour (detach the payload into owned bytes at decode) for the
// trajectory comparison in BENCH_micro.json.

// Decode an ACCEPT at every recipient and keep the delivered payload the
// way the seed did: as owned bytes (one copy per recipient).
std::vector<Bytes> deliver_owned_style(const std::vector<BufferSlice>& inboxes) {
    std::vector<Bytes> delivered;
    delivered.reserve(inboxes.size());
    for (const BufferSlice& wire : inboxes) {
        codec::EnvelopeView env(wire);
        const auto decoded = wbcast::AcceptMsg::decode(env.body);
        delivered.push_back(decoded.msg.payload.to_bytes());
    }
    return delivered;
}

// Slice delivery: the payload handed to the sink aliases the wire buffer.
std::vector<BufferSlice> deliver_slice_style(
    const std::vector<BufferSlice>& inboxes) {
    std::vector<BufferSlice> delivered;
    delivered.reserve(inboxes.size());
    for (const BufferSlice& wire : inboxes) {
        codec::EnvelopeView env(wire);
        const auto decoded = wbcast::AcceptMsg::decode(env.body);
        delivered.push_back(decoded.msg.payload);
    }
    return delivered;
}

void BM_DeliverFanoutOwnedPayload(benchmark::State& state) {
    const auto a = fanout_accept(static_cast<std::size_t>(state.range(0)));
    CollectContext ctx;
    fanout_shared(a, ctx);
    for (auto _ : state) {
        auto delivered = deliver_owned_style(ctx.inboxes);
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * fanout_recipients);
}
BENCHMARK(BM_DeliverFanoutOwnedPayload)->Arg(20)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_DeliverFanoutSlicePayload(benchmark::State& state) {
    const auto a = fanout_accept(static_cast<std::size_t>(state.range(0)));
    CollectContext ctx;
    fanout_shared(a, ctx);
    for (auto _ : state) {
        auto delivered = deliver_slice_style(ctx.inboxes);
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * fanout_recipients);
}
BENCHMARK(BM_DeliverFanoutSlicePayload)->Arg(20)->Arg(1024)->Arg(4096)->Arg(65536);

struct DeliveryCopyStats {
    std::size_t payload = 0;
    std::uint64_t owned_bytes_copied = 0;  // seed-style decode-side detach
    std::uint64_t slice_bytes_copied = 0;  // zero-copy views (expect 0)
    bool slices_share_wire = false;        // all recipients alias one buffer
};

DeliveryCopyStats measure_delivery_copies(std::size_t payload_size) {
    DeliveryCopyStats out;
    out.payload = payload_size;
    const auto a = fanout_accept(payload_size);
    CollectContext ctx;
    fanout_shared(a, ctx);

    std::uint64_t before = buffer_stats::bytes_copied();
    const auto owned = deliver_owned_style(ctx.inboxes);
    out.owned_bytes_copied = buffer_stats::bytes_copied() - before;

    before = buffer_stats::bytes_copied();
    const auto slices = deliver_slice_style(ctx.inboxes);
    out.slice_bytes_copied = buffer_stats::bytes_copied() - before;

    out.slices_share_wire = !slices.empty();
    for (const BufferSlice& s : slices)
        out.slices_share_wire &= same_storage(s, slices.front());
    benchmark::DoNotOptimize(owned);
    return out;
}

// One fan-out, decoded at every recipient: byte-copy accounting per path,
// reported in BENCH_micro.json.
struct FanoutCopyStats {
    std::size_t payload = 0;
    std::uint64_t wire_size = 0;
    std::uint64_t seed_bytes_copied = 0;
    std::uint64_t shared_bytes_copied = 0;
};

FanoutCopyStats measure_fanout_copies(std::size_t payload_size) {
    FanoutCopyStats out;
    out.payload = payload_size;
    const auto a = fanout_accept(payload_size);
    out.wire_size = codec::encode_envelope(
                        codec::Module::proto,
                        static_cast<std::uint8_t>(wbcast::MsgType::accept),
                        a.msg.id, a)
                        .size();

    auto run = [&](auto&& fanout) {
        CollectContext ctx;
        const std::uint64_t before = buffer_stats::bytes_copied();
        fanout(a, ctx);
        for (const BufferSlice& wire : ctx.inboxes) {
            codec::EnvelopeView env(wire);
            const auto decoded = wbcast::AcceptMsg::decode(env.body);
            benchmark::DoNotOptimize(decoded);
        }
        return buffer_stats::bytes_copied() - before;
    };
    out.seed_bytes_copied = run(fanout_seed_style);
    out.shared_bytes_copied = run(fanout_shared);
    return out;
}

// --- payload-size sweep -------------------------------------------------------
//
// ROADMAP item: with zero-copy delivery the Fig. 7/8 throughput ceiling —
// the leader's serial encode + fan-out + every recipient's decode — should
// be insensitive to payload size, because no stage copies payload bytes
// anymore. The sweep measures one full message round (encode once, 9
// recipients decode and keep the payload) at growing payload sizes on both
// delivery styles: bytes copied (deterministic, via buffer_stats) and
// wall-clock per message (illustrative). The owned-payload column re-enacts
// the seed's decode-side copy and grows linearly; the slice column stays
// flat at zero copies.

struct SweepPoint {
    std::size_t payload = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t owned_bytes_copied = 0;
    std::uint64_t slice_bytes_copied = 0;
    double owned_ns_per_msg = 0;
    double slice_ns_per_msg = 0;
};

template <typename Fn>
double time_ns_per_call(Fn&& fn) {
    constexpr int iters = 400;
    fn();  // warm-up (first call faults in the fan-out buffers)
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto stop = std::chrono::steady_clock::now();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                   .count()) /
           iters;
}

SweepPoint measure_sweep_point(std::size_t payload) {
    SweepPoint out;
    out.payload = payload;
    const auto a = fanout_accept(payload);
    CollectContext ctx;
    fanout_shared(a, ctx);
    out.wire_bytes = ctx.inboxes.empty() ? 0 : ctx.inboxes.front().size();

    std::uint64_t before = buffer_stats::bytes_copied();
    auto owned = deliver_owned_style(ctx.inboxes);
    out.owned_bytes_copied = buffer_stats::bytes_copied() - before;
    before = buffer_stats::bytes_copied();
    auto slices = deliver_slice_style(ctx.inboxes);
    out.slice_bytes_copied = buffer_stats::bytes_copied() - before;
    benchmark::DoNotOptimize(owned);
    benchmark::DoNotOptimize(slices);

    out.owned_ns_per_msg = time_ns_per_call([&] {
        auto d = deliver_owned_style(ctx.inboxes);
        benchmark::DoNotOptimize(d);
    });
    out.slice_ns_per_msg = time_ns_per_call([&] {
        auto d = deliver_slice_style(ctx.inboxes);
        benchmark::DoNotOptimize(d);
    });
    return out;
}

// --- transport saturation (sharded event loops) -------------------------------
//
// Raw messages/sec of the TCP transport across shard counts: P echo pairs
// over loopback, blasters in one NetWorld, echo sinks in another, each
// blaster keeping `window` round trips in flight. Pair affinity spreads
// the P channels across the event-loop shards, so the shard axis {1,2,4}
// measures how the transport scales with cores — the numbers land in
// BENCH_micro.json's "saturation" section (messages_per_sec and
// messages_per_sec_per_core, median of 3 runs), tracked non-gating in CI.

class EchoSink final : public Process {
public:
    void on_start(Context&) override {}
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override {
        ctx.send(from, bytes);
    }
    void on_timer(Context&, TimerId) override {}
};

class Blaster final : public Process {
public:
    Blaster(ProcessId peer, int msgs, int window, std::size_t payload,
            std::atomic<std::uint64_t>* completed)
        : peer_(peer), msgs_(msgs), window_(window),
          payload_(payload, 0x5a), completed_(completed) {}

    void on_start(Context& ctx) override {
        const int burst = std::min(window_, msgs_);
        for (int i = 0; i < burst; ++i) send_one(ctx);
    }
    void on_message(Context& ctx, ProcessId, const BufferSlice&) override {
        completed_->fetch_add(1, std::memory_order_relaxed);
        if (issued_ < msgs_) send_one(ctx);
    }
    void on_timer(Context&, TimerId) override {}

private:
    void send_one(Context& ctx) {
        ++issued_;
        ctx.send(peer_, payload_);
    }

    ProcessId peer_;
    int msgs_;
    int window_;
    Bytes payload_;
    std::atomic<std::uint64_t>* completed_;
    int issued_ = 0;
};

struct SaturationRun {
    double seconds = 0;
    std::uint64_t messages = 0;      // both directions count
    std::uint64_t writev_calls = 0;
    std::uint64_t frames_sent = 0;
    bool completed = false;
};

SaturationRun run_saturation(int shards, int pairs, int msgs_per_pair,
                             int window, std::size_t payload) {
    const int n = 2 * pairs;
    const Topology topo(1, 1, n - 1);
    net::NetConfig cfg;
    cfg.shards = shards;
    cfg.epoch = std::chrono::steady_clock::now();

    std::atomic<std::uint64_t> completed{0};
    // Even pids blast, odd pids echo; the two sides live in different
    // NetWorlds so every message crosses a real TCP connection.
    net::NetWorld blast_world(topo, 11, cfg);
    net::NetWorld echo_world(topo, 22, cfg);
    for (ProcessId p = 0; p < n; p += 2)
        blast_world.add_process(p,
                                std::make_unique<Blaster>(p + 1, msgs_per_pair,
                                                          window, payload,
                                                          &completed),
                                /*listen_port=*/0);
    for (ProcessId p = 1; p < n; p += 2)
        echo_world.add_process(p, std::make_unique<EchoSink>(),
                               /*listen_port=*/0);
    net::ClusterMap map;
    map.endpoints.resize(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p)
        map.endpoints[static_cast<std::size_t>(p)] = net::Endpoint{
            "127.0.0.1",
            (p % 2 == 0 ? blast_world : echo_world).port_of(p)};
    blast_world.set_cluster(map);
    echo_world.set_cluster(map);

    net::transport_stats::reset();
    const std::uint64_t target =
        static_cast<std::uint64_t>(msgs_per_pair) *
        static_cast<std::uint64_t>(pairs);
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::seconds(60);
    echo_world.start();
    blast_world.start();
    while (completed.load(std::memory_order_relaxed) < target &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    const auto stop = std::chrono::steady_clock::now();
    blast_world.shutdown();
    echo_world.shutdown();

    SaturationRun out;
    out.seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(stop - start)
            .count();
    out.completed = completed.load() >= target;
    out.messages = 2 * completed.load();  // each round trip = 2 messages
    out.writev_calls = net::transport_stats::writev_calls();
    out.frames_sent = net::transport_stats::frames_sent();
    return out;
}

struct SaturationPoint {
    int shards = 0;
    SaturationRun median;  // of 3 runs, by messages/sec
    double messages_per_sec = 0;
    double messages_per_sec_per_core = 0;
    double frames_per_writev = 0;
};

SaturationPoint measure_saturation_point(int shards) {
    const bool quick = std::getenv("WBAM_BENCH_QUICK") != nullptr;
    const int pairs = 8;
    const int msgs = quick ? 400 : 4000;
    const int window = 64;
    const std::size_t payload = 64;
    const int runs = quick ? 1 : 3;
    std::vector<SaturationRun> results;
    for (int r = 0; r < runs; ++r)
        results.push_back(run_saturation(shards, pairs, msgs, window, payload));
    std::sort(results.begin(), results.end(),
              [](const SaturationRun& a, const SaturationRun& b) {
                  const double ra = a.seconds > 0
                                        ? static_cast<double>(a.messages) /
                                              a.seconds
                                        : 0;
                  const double rb = b.seconds > 0
                                        ? static_cast<double>(b.messages) /
                                              b.seconds
                                        : 0;
                  return ra < rb;
              });
    SaturationPoint out;
    out.shards = shards;
    out.median = results[results.size() / 2];
    if (out.median.seconds > 0)
        out.messages_per_sec =
            static_cast<double>(out.median.messages) / out.median.seconds;
    out.messages_per_sec_per_core = out.messages_per_sec / shards;
    if (out.median.writev_calls > 0)
        out.frames_per_writev =
            static_cast<double>(out.median.frames_sent) /
            static_cast<double>(out.median.writev_calls);
    std::fprintf(stderr,
                 "saturation shards=%d: %.0f msgs/s (%.0f per core), "
                 "%.2f frames/writev%s\n",
                 shards, out.messages_per_sec, out.messages_per_sec_per_core,
                 out.frames_per_writev,
                 out.median.completed ? "" : " [TIMED OUT]");
    return out;
}

// --- WAL durability cost ------------------------------------------------------
//
// What each --wal-sync mode costs per appended record, measured on a fresh
// log file: `always` pays one fsync per record (the per-message-durability
// floor), `group` amortizes one fsync over a whole commit batch (the mode
// wbamd runs with — the batch boundary is the protocol's message-batch
// flush), `off` writes without syncing (crash durability = none, the
// write-path cost floor). Record shape models a protocol append: a small
// Writer-encoded meta part plus a 64-byte retained payload slice.

struct DurabilityPoint {
    wal::SyncMode mode = wal::SyncMode::off;
    int batch = 1;  // appends per commit()
    std::uint64_t appends = 0;
    double seconds = 0;
    double appends_per_sec = 0;
    double us_per_append = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t bytes_written = 0;
};

DurabilityPoint measure_durability(wal::SyncMode mode, int batch,
                                   std::uint64_t appends) {
    const char* tmp = std::getenv("TMPDIR");
    const std::string path = std::string(tmp != nullptr ? tmp : "/tmp") +
                             "/wbam_bench_wal_" + wal::to_string(mode) +
                             ".wal";
    std::remove(path.c_str());

    DurabilityPoint out;
    out.mode = mode;
    out.batch = batch;
    out.appends = appends;
    const Bytes payload_bytes(64, 0x5a);
    {
        wal::Log log(path, mode);
        if (!log.ok()) return out;
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < appends; ++i) {
            codec::Writer w;
            w.varint(i);  // meta: a record id, like a MsgId or Timestamp
            log.append(/*type=*/1, std::move(w).take(),
                       BufferSlice(Bytes(payload_bytes)));
            if (static_cast<int>(i % static_cast<std::uint64_t>(batch)) ==
                batch - 1)
                log.commit();
        }
        log.commit();
        const auto stop = std::chrono::steady_clock::now();
        out.seconds = std::chrono::duration_cast<
                          std::chrono::duration<double>>(stop - start)
                          .count();
        out.fsyncs = log.stats().fsyncs;
        out.bytes_written = log.stats().bytes_written;
    }
    std::remove(path.c_str());
    if (out.seconds > 0)
        out.appends_per_sec = static_cast<double>(appends) / out.seconds;
    out.us_per_append = out.seconds * 1e6 / static_cast<double>(appends);
    std::fprintf(stderr,
                 "durability %s (batch %d): %.0f appends/s, %.2f us/append, "
                 "%llu fsyncs\n",
                 wal::to_string(out.mode), out.batch, out.appends_per_sec,
                 out.us_per_append,
                 static_cast<unsigned long long>(out.fsyncs));
    return out;
}

// --- receive path: one readiness event = one read + drain ---------------------
//
// One frame of `frame_bytes` (length prefix included) is written to a
// socketpair; the timed region is the runtime's read step
// (FrameReassembler::read_from) plus drain() handing the frame out as a
// slice. The write stays outside the timed region. A right-sized read
// costs in proportion to the frame; a fixed zero-filled receive window
// would make the cost flat in the frame size.
std::map<std::size_t, double> g_net_read_ns;  // frame bytes -> ns per frame

// BM_GcStall: row -> per-round deliveries -> longest GC handler call.
struct GcCallStats {
    double max_us = 0;
    std::size_t max_entries = 0;
};
std::map<std::string, std::map<std::int64_t, GcCallStats>> g_gc_stall;

void BM_NetReadPath(benchmark::State& state) {
    const auto frame_bytes = static_cast<std::size_t>(state.range(0));
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        state.SkipWithError("socketpair failed");
        return;
    }
    Bytes wire(frame_bytes, 0x5a);
    net::put_frame_header(
        wire.data(),
        static_cast<std::uint32_t>(frame_bytes - net::frame_header_size));
    net::FrameReassembler rx;
    std::uint64_t frames = 0;
    double total_ns = 0;
    for (auto _ : state) {
        if (::write(fds[0], wire.data(), wire.size()) !=
            static_cast<ssize_t>(wire.size())) {
            state.SkipWithError("short write");
            break;
        }
        const auto t0 = std::chrono::steady_clock::now();
        const net::ReadResult r = rx.read_from(fds[1]);
        benchmark::DoNotOptimize(r);
        rx.drain([&frames](const BufferSlice& frame) {
            benchmark::DoNotOptimize(frame.data());
            ++frames;
        });
        const double ns = std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        total_ns += ns;
        state.SetIterationTime(ns * 1e-9);
    }
    ::close(fds[0]);
    ::close(fds[1]);
    if (frames != static_cast<std::uint64_t>(state.iterations())) {
        state.SkipWithError("a frame needed more than one read");
        return;
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(frames * frame_bytes));
    g_net_read_ns[frame_bytes] =
        total_ns / static_cast<double>(state.iterations());
}
BENCHMARK(BM_NetReadPath)->Arg(64)->Arg(1024)->Arg(16384)->UseManualTime();

void write_bench_json() {
    const char* path = std::getenv("BENCH_MICRO_JSON");
    if (path == nullptr) path = "BENCH_micro.json";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"bench_micro\",\n");
    std::fprintf(f, "  \"fanout\": {\n");
    std::fprintf(f, "    \"scenario\": \"3-group ACCEPT fan-out, %d recipients, encode + deliver + decode\",\n",
                 fanout_recipients);
    std::fprintf(f, "    \"payload_sizes\": [\n");
    const std::size_t sizes[] = {20, 1024, 4096};
    // A fully zero-copy shared path divides by zero; the factor is emitted
    // as null then (docs/BENCHMARKS.md documents the schema).
    auto print_factor = [f](std::uint64_t num, std::uint64_t den) {
        if (den == 0)
            std::fprintf(f, "\"copy_reduction_factor\": null");
        else
            std::fprintf(f, "\"copy_reduction_factor\": %.2f",
                         static_cast<double>(num) / static_cast<double>(den));
    };
    bool first = true;
    for (const std::size_t payload : sizes) {
        const FanoutCopyStats s = measure_fanout_copies(payload);
        std::fprintf(f, "%s", first ? "" : ",\n");
        first = false;
        std::fprintf(f,
                     "      {\"payload_bytes\": %zu, \"wire_bytes\": %llu, "
                     "\"seed_bytes_copied\": %llu, "
                     "\"shared_bytes_copied\": %llu, ",
                     payload,
                     static_cast<unsigned long long>(s.wire_size),
                     static_cast<unsigned long long>(s.seed_bytes_copied),
                     static_cast<unsigned long long>(s.shared_bytes_copied));
        print_factor(s.seed_bytes_copied, s.shared_bytes_copied);
        std::fprintf(f, "}");
    }
    std::fprintf(f, "\n    ]\n  },\n");
    // Decode-side delivery: bytes copied to hand every recipient its
    // payload, owned-Bytes style (the pre-slice decode path, one copy per
    // recipient) vs BufferSlice views of the shared wire buffer.
    std::fprintf(f, "  \"delivery\": {\n");
    std::fprintf(f, "    \"scenario\": \"decode one shared ACCEPT fan-out at every recipient and keep the payload\",\n");
    std::fprintf(f, "    \"recipients\": %d,\n", fanout_recipients);
    std::fprintf(f, "    \"payload_sizes\": [\n");
    first = true;
    for (const std::size_t payload : sizes) {
        const DeliveryCopyStats s = measure_delivery_copies(payload);
        std::fprintf(f, "%s", first ? "" : ",\n");
        first = false;
        std::fprintf(f,
                     "      {\"payload_bytes\": %zu, "
                     "\"owned_decode_bytes_copied\": %llu, "
                     "\"slice_decode_bytes_copied\": %llu, "
                     "\"bytes_copied_per_recipient_owned\": %llu, "
                     "\"bytes_copied_per_recipient_slice\": %llu, "
                     "\"all_recipients_share_wire_buffer\": %s, ",
                     payload,
                     static_cast<unsigned long long>(s.owned_bytes_copied),
                     static_cast<unsigned long long>(s.slice_bytes_copied),
                     static_cast<unsigned long long>(s.owned_bytes_copied /
                                                     fanout_recipients),
                     static_cast<unsigned long long>(s.slice_bytes_copied /
                                                     fanout_recipients),
                     s.slices_share_wire ? "true" : "false");
        print_factor(s.owned_bytes_copied, s.slice_bytes_copied);
        std::fprintf(f, "}");
    }
    std::fprintf(f, "\n    ]\n  },\n");
    // Payload-size sweep: the throughput-ceiling work per message (encode
    // once + 9 recipients decode and keep the payload) across payload
    // sizes. slice_bytes_copied stays 0 at every size — the ceiling is
    // payload-size-insensitive with zero-copy delivery (docs/BENCHMARKS.md
    // has the interpretation; ns numbers are wall-clock, machine-noisy).
    std::fprintf(f, "  \"sweep\": {\n");
    std::fprintf(f, "    \"scenario\": \"full delivery round at growing payload sizes: encode one ACCEPT, fan out to %d recipients, decode + keep payload at each\",\n",
                 fanout_recipients);
    std::fprintf(f, "    \"recipients\": %d,\n", fanout_recipients);
    std::fprintf(f, "    \"payload_sizes\": [\n");
    const std::size_t sweep_sizes[] = {16, 256, 4096, 65536};
    first = true;
    for (const std::size_t payload : sweep_sizes) {
        const SweepPoint s = measure_sweep_point(payload);
        std::fprintf(f, "%s", first ? "" : ",\n");
        first = false;
        std::fprintf(f,
                     "      {\"payload_bytes\": %zu, \"wire_bytes\": %llu, "
                     "\"owned_decode_bytes_copied\": %llu, "
                     "\"slice_decode_bytes_copied\": %llu, "
                     "\"owned_ns_per_fanout\": %.0f, "
                     "\"slice_ns_per_fanout\": %.0f, ",
                     payload,
                     static_cast<unsigned long long>(s.wire_bytes),
                     static_cast<unsigned long long>(s.owned_bytes_copied),
                     static_cast<unsigned long long>(s.slice_bytes_copied),
                     s.owned_ns_per_msg, s.slice_ns_per_msg);
        print_factor(s.owned_bytes_copied, s.slice_bytes_copied);
        std::fprintf(f, "}");
    }
    std::fprintf(f, "\n    ]\n  },\n");
    // Transport saturation across event-loop shard counts. per_core divides
    // by the shard count, so flat per-core numbers across the axis mean the
    // sharded transport scales; speedup_4_over_1 is the CI headline (needs
    // >= 4 real cores to show > 1).
    std::fprintf(f, "  \"saturation\": {\n");
    std::fprintf(f,
                 "    \"scenario\": \"8 echo pairs over loopback TCP, 64-byte "
                 "payloads, 64 round trips in flight per pair; both directions "
                 "count as messages\",\n");
    std::fprintf(f, "    \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "    \"median_of\": %d,\n",
                 std::getenv("WBAM_BENCH_QUICK") != nullptr ? 1 : 3);
    std::fprintf(f, "    \"shard_axis\": [\n");
    const int shard_axis[] = {1, 2, 4};
    double rate_at_1 = 0, rate_at_4 = 0;
    bool first_shard = true;
    for (const int shards : shard_axis) {
        const SaturationPoint s = measure_saturation_point(shards);
        if (shards == 1) rate_at_1 = s.messages_per_sec;
        if (shards == 4) rate_at_4 = s.messages_per_sec;
        std::fprintf(f, "%s", first_shard ? "" : ",\n");
        first_shard = false;
        std::fprintf(f,
                     "      {\"shards\": %d, \"messages\": %llu, "
                     "\"seconds\": %.4f, \"messages_per_sec\": %.0f, "
                     "\"messages_per_sec_per_core\": %.0f, "
                     "\"frames_sent\": %llu, \"writev_calls\": %llu, "
                     "\"frames_per_writev\": %.2f, \"completed\": %s}",
                     s.shards,
                     static_cast<unsigned long long>(s.median.messages),
                     s.median.seconds, s.messages_per_sec,
                     s.messages_per_sec_per_core,
                     static_cast<unsigned long long>(s.median.frames_sent),
                     static_cast<unsigned long long>(s.median.writev_calls),
                     s.frames_per_writev,
                     s.median.completed ? "true" : "false");
    }
    std::fprintf(f, "\n    ],\n");
    if (rate_at_1 > 0)
        std::fprintf(f, "    \"speedup_4_over_1\": %.2f\n",
                     rate_at_4 / rate_at_1);
    else
        std::fprintf(f, "    \"speedup_4_over_1\": null\n");
    std::fprintf(f, "  },\n");
    // WAL durability: per-append cost of the three --wal-sync modes on a
    // fresh log. group_commit_speedup_over_always is the headline: how much
    // one-fsync-per-batch buys over one-fsync-per-record.
    std::fprintf(f, "  \"durability\": {\n");
    std::fprintf(f,
                 "    \"scenario\": \"append ~73-byte records (varint meta + "
                 "64-byte payload slice) to a fresh WAL; one fsync per record "
                 "(always), per 64-record batch (group), or never (off)\",\n");
    {
        const bool quick = std::getenv("WBAM_BENCH_QUICK") != nullptr;
        const std::uint64_t n_buffered = quick ? 4000 : 40000;
        const std::uint64_t n_synced = quick ? 200 : 2000;
        const DurabilityPoint points[] = {
            measure_durability(wal::SyncMode::off, 64, n_buffered),
            measure_durability(wal::SyncMode::group_commit, 64, n_buffered),
            measure_durability(wal::SyncMode::always, 1, n_synced),
        };
        std::fprintf(f, "    \"modes\": [\n");
        bool first_mode = true;
        for (const DurabilityPoint& p : points) {
            std::fprintf(f, "%s", first_mode ? "" : ",\n");
            first_mode = false;
            std::fprintf(
                f,
                "      {\"sync\": \"%s\", \"batch\": %d, \"appends\": %llu, "
                "\"seconds\": %.4f, \"appends_per_sec\": %.0f, "
                "\"us_per_append\": %.2f, \"fsyncs\": %llu, "
                "\"bytes_written\": %llu}",
                wal::to_string(p.mode), p.batch,
                static_cast<unsigned long long>(p.appends), p.seconds,
                p.appends_per_sec, p.us_per_append,
                static_cast<unsigned long long>(p.fsyncs),
                static_cast<unsigned long long>(p.bytes_written));
        }
        std::fprintf(f, "\n    ],\n");
        if (points[2].appends_per_sec > 0)
            std::fprintf(f,
                         "    \"group_commit_speedup_over_always\": %.2f\n",
                         points[1].appends_per_sec /
                             points[2].appends_per_sec);
        else
            std::fprintf(f,
                         "    \"group_commit_speedup_over_always\": null\n");
    }
    std::fprintf(f, "  },\n");
    // Receive path: ns per frame of one read step + drain, from the
    // BM_NetReadPath runs of this invocation (empty when filtered out).
    std::fprintf(f, "  \"net_read_path\": {\n");
    std::fprintf(f,
                 "    \"scenario\": \"one frame written to a socketpair, "
                 "then FrameReassembler::read_from + drain, timed per "
                 "frame\",\n");
    std::fprintf(f, "    \"frames\": [");
    bool first_frame = true;
    for (const auto& [bytes, ns] : g_net_read_ns) {
        std::fprintf(f, "%s\n      {\"frame_bytes\": %zu, "
                        "\"ns_per_frame\": %.0f}",
                     first_frame ? "" : ",", bytes, ns);
        first_frame = false;
    }
    std::fprintf(f, "%s]\n  },\n", first_frame ? "" : "\n    ");
    // GC stall: the longest GC handler call, per row and per-round
    // delivery count, from the BM_GcStall runs of this invocation.
    std::fprintf(f, "  \"gc_stall\": {\n");
    std::fprintf(f,
                 "    \"scenario\": \"1 group x 3 replicas, steady load of "
                 "per_round deliveries per GC interval; longest GC tick or "
                 "gc_prune handler call while it flows\",\n");
    std::fprintf(f, "    \"rows\": [");
    bool first_row = true;
    for (const auto& [row, by_count] : g_gc_stall) {
        for (const auto& [per_round, st] : by_count) {
            std::fprintf(f,
                         "%s\n      {\"row\": \"%s\", \"per_round\": %lld, "
                         "\"max_gc_call_us\": %.1f, "
                         "\"max_entries_per_call\": %zu}",
                         first_row ? "" : ",", row.c_str(),
                         static_cast<long long>(per_round), st.max_us,
                         st.max_entries);
            first_row = false;
        }
    }
    std::fprintf(f, "%s]\n  }\n}\n", first_row ? "" : "\n    ");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path);
}

// White-box stage breakdown of whatever protocol rounds the benchmarks
// drove (BM_WbcastDeliveryRoundTrip fills stage/wbcast/* in the global
// registry; /sim records virtual time and /net wall time, so filter to one
// capture to read either alone). Same table shape as `wbamctl run`, one
// per protocol seen.
void print_stage_tables() {
    const obs::MetricsSnapshot snap = obs::metrics().snapshot();
    std::vector<std::string> protos;
    for (const auto& [name, hist] : snap.histograms) {
        if (name.rfind("stage/", 0) != 0 || hist.count() == 0) continue;
        const std::size_t slash = name.find('/', 6);
        if (slash == std::string::npos) continue;
        const std::string proto = name.substr(6, slash - 6);
        if (std::find(protos.begin(), protos.end(), proto) == protos.end())
            protos.push_back(proto);
    }
    const auto find_hist =
        [&snap](const std::string& name) -> const stats::Histogram* {
        for (const auto& [n, h] : snap.histograms)
            if (n == name && h.count() > 0) return &h;
        return nullptr;
    };
    for (const std::string& proto : protos) {
        std::fprintf(stderr,
                     "stage breakdown (%s, cumulative from submit):\n",
                     proto.c_str());
        std::fprintf(stderr, "  %-16s %10s %10s %10s %10s\n", "stage",
                     "count", "p50_ms", "segment", "p99_ms");
        double prev_p50 = 0;
        for (int s = 0; s < obs::num_stages; ++s) {
            const char* stage_name =
                obs::to_string(static_cast<obs::Stage>(s));
            const stats::Histogram* h =
                find_hist("stage/" + proto + "/" + stage_name);
            if (h == nullptr) continue;
            const double p50 = static_cast<double>(h->percentile(0.50)) / 1e6;
            const double p99 = static_cast<double>(h->percentile(0.99)) / 1e6;
            std::fprintf(stderr, "  %-16s %10llu %10.3f %10.3f %10.3f\n",
                         stage_name,
                         static_cast<unsigned long long>(h->count()), p50,
                         p50 - prev_p50, p99);
            prev_p50 = p50;
        }
    }
}

// A ring of processes forwarding a token: measures raw event overhead of
// the discrete-event scheduler (heap ops + dispatch + FIFO bookkeeping).
class RingProcess final : public Process {
public:
    RingProcess(ProcessId next, std::uint64_t hops) : next_(next), hops_(hops) {}
    void on_start(Context& ctx) override {
        if (ctx.self() == 0) ctx.send(next_, Bytes{1});
    }
    void on_message(Context& ctx, ProcessId, const BufferSlice& b) override {
        if (--hops_ > 0) ctx.send(next_, b);
    }
    void on_timer(Context&, TimerId) override {}

private:
    ProcessId next_;
    std::uint64_t hops_;
};

void BM_SimEventThroughput(benchmark::State& state) {
    const int n = 16;
    const std::uint64_t hops = 100000;
    for (auto _ : state) {
        sim::World world(Topology(1, 1, n - 1),
                         std::make_unique<sim::UniformDelay>(microseconds(10)),
                         1);
        for (ProcessId p = 0; p < n; ++p)
            world.add_process(p, std::make_unique<RingProcess>((p + 1) % n,
                                                               hops));
        world.start();
        world.run_until_idle(seconds(100));
        benchmark::DoNotOptimize(world.events_processed());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_SimEventThroughput)->Unit(benchmark::kMillisecond);

// --- full delivery round trip, sim and net ----------------------------------
//
// One closed-loop multicast to both groups of a 2x3 wbcast cluster,
// measured issue -> delivered by every destination group. Two captures:
// /sim measures the simulator's wall cost of a virtual round
// (harness::Cluster); /net runs the identical protocol over loopback TCP
// sockets (harness::LiveCluster) — the paper's deployment shape in
// miniature.
void BM_WbcastDeliveryRoundTrip(benchmark::State& state, bool over_net) {
    ReplicaConfig replica;
    replica.heartbeat_interval = milliseconds(50);
    replica.suspect_timeout = seconds(30);  // quiet failure machinery
    replica.retry_interval = seconds(10);
    if (!over_net) {
        harness::ClusterConfig cfg;
        cfg.kind = harness::ProtocolKind::wbcast;
        cfg.groups = 2;
        cfg.group_size = 3;
        cfg.clients = 1;
        cfg.replica = replica;
        cfg.delta = microseconds(50);
        harness::Cluster cluster(std::move(cfg));
        std::size_t done = 0;
        for (auto _ : state) {
            cluster.multicast_at(cluster.world().now(), 0, {0, 1});
            ++done;
            while (cluster.log().completed_count() < done)
                cluster.run_for(microseconds(50));
        }
    } else {
        harness::LiveClusterConfig cfg;
        cfg.kind = harness::ProtocolKind::wbcast;
        cfg.groups = 2;
        cfg.group_size = 3;
        cfg.clients = 1;
        cfg.replica = replica;
        harness::LiveCluster cluster(std::move(cfg));
        for (auto _ : state) {
            cluster.multicast(0, {0, 1});
            if (!cluster.await_completion(seconds(10))) {
                state.SkipWithError("delivery round timed out");
                break;
            }
        }
        cluster.shutdown();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_WbcastDeliveryRoundTrip, sim, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WbcastDeliveryRoundTrip, net, true)
    ->Unit(benchmark::kMicrosecond);

// --- GC round cost vs. retained history --------------------------------------
//
// One GC round plus one retry tick at group 0's leader of a 2-group x
// 1-replica cluster that retains `retained` compacted stubs, with a fixed
// set of 8 cross-group messages stuck in flight (group 1 is down, so they
// are retried every tick). Each iteration advances the simulation by one
// interval, which fires exactly those two timers (elections are off and
// client retries are far apart). The GC round walks only the compaction
// queue and the retry tick only the in-flight index, so the cost should be
// flat in `retained`; a full entry-table scan would make it linear.
std::pair<std::size_t, std::size_t> retention_at(harness::Cluster& c,
                                                 harness::ProtocolKind kind,
                                                 ProcessId p) {
    switch (kind) {
        case harness::ProtocolKind::ftskeen: {
            auto& r = c.world().process_as<ftskeen::FtSkeenReplica>(p);
            return {r.entry_count(), r.compacted_count()};
        }
        case harness::ProtocolKind::fastcast: {
            auto& r = c.world().process_as<fastcast::FastCastReplica>(p);
            return {r.entry_count(), r.compacted_count()};
        }
        default: {
            auto& r = c.world().process_as<wbcast::WbcastReplica>(p);
            return {r.entry_count(), r.compacted_count()};
        }
    }
}

void BM_GcRound(benchmark::State& state, harness::ProtocolKind kind) {
    const auto retained = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t in_flight = 8;
    const Duration tick = milliseconds(10);
    harness::ClusterConfig cfg;
    cfg.kind = kind;
    cfg.groups = 2;
    cfg.group_size = 1;
    cfg.clients = 1;
    cfg.delta = microseconds(20);
    cfg.client_retry = seconds(3600);
    cfg.replica.election_enabled = false;
    cfg.replica.retry_interval = tick;
    cfg.replica.gc_interval = tick;
    harness::Cluster c(std::move(cfg));
    const ProcessId leader = c.topo().initial_leader(0);
    for (std::size_t i = 0; i < retained; ++i)
        c.multicast_at(static_cast<TimePoint>(i) * microseconds(10), 0, {0});
    while (c.log().completed_count() < retained) c.run_for(tick);
    c.run_for(4 * tick);  // the last deliveries compact
    c.world().crash(c.topo().initial_leader(1));
    for (std::size_t i = 0; i < in_flight; ++i)
        c.multicast_at(c.world().now(), 0, {0, 1});
    c.run_for(tick);
    const auto [entries, compacted] = retention_at(c, kind, leader);
    if (compacted < retained || entries < retained + in_flight) {
        state.SkipWithError("setup did not reach the retained state");
        return;
    }
    for (auto _ : state) c.run_for(tick);
    state.counters["entries"] = static_cast<double>(entries);
    state.counters["compacted"] = static_cast<double>(compacted);
    state.SetLabel(harness::to_string(kind));
}
BENCHMARK_CAPTURE(BM_GcRound, wbcast, harness::ProtocolKind::wbcast)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Iterations(50)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GcRound, ftskeen, harness::ProtocolKind::ftskeen)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Iterations(50)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GcRound, fastcast, harness::ProtocolKind::fastcast)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Iterations(50)->Unit(benchmark::kMicrosecond);

// --- GC stall: the longest GC handler call ----------------------------------
//
// A 1-group x 3-replica cluster under steady single-group load of
// `per_round` deliveries per GC interval, so each GC round licenses about
// that many entries. Every replica is wrapped to time (wall clock) its GC
// handler calls while the load flows: timer calls (the GC tick, with the
// retry tick beside it) and gc_prune messages. Reported: the longest such
// call, and the most entries any one handler call compacted. A GC round
// or prune that compacts its whole floor grows with `per_round`; one that
// only raises the floor, leaving the compaction to the deliveries that
// follow, stays flat. The black-box rows' tick also prunes the consensus
// log (MultiPaxos::prune_chosen), which still grows with `per_round`.
class GcCallTimer final : public Process {
public:
    GcCallTimer(std::unique_ptr<Process> inner, std::uint8_t prune_type,
                TimePoint until, GcCallStats& stats)
        : inner_(std::move(inner)), prune_type_(prune_type), until_(until),
          stats_(stats) {
        for (Process* p = inner_.get(); p != nullptr && core_ == nullptr;
             p = p->wrapped())
            core_ = dynamic_cast<ReplicaCore*>(p);
    }
    void on_start(Context& ctx) override { inner_->on_start(ctx); }
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override {
        const codec::EnvelopeView env(bytes);
        const bool prune = env.module == codec::Module::proto &&
                           env.type == prune_type_;
        timed(ctx, prune, [&] { inner_->on_message(ctx, from, bytes); });
    }
    void on_timer(Context& ctx, TimerId id) override {
        timed(ctx, true, [&] { inner_->on_timer(ctx, id); });
    }
    Process* wrapped() override { return inner_.get(); }

private:
    template <class Call>
    void timed(Context& ctx, bool gc_call, Call&& call) {
        const bool on = ctx.now() < until_;
        const std::size_t before = core_->compacted_count();
        const auto t0 = std::chrono::steady_clock::now();
        call();
        const double us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        if (!on) return;
        if (gc_call) stats_.max_us = std::max(stats_.max_us, us);
        const std::size_t after = core_->compacted_count();
        if (after > before)
            stats_.max_entries = std::max(stats_.max_entries, after - before);
    }

    std::unique_ptr<Process> inner_;
    std::uint8_t prune_type_;
    TimePoint until_;
    GcCallStats& stats_;
    ReplicaCore* core_ = nullptr;
};

std::uint8_t gc_prune_type(harness::ProtocolKind kind) {
    switch (kind) {
        case harness::ProtocolKind::ftskeen:
            return static_cast<std::uint8_t>(ftskeen::MsgType::gc_prune);
        case harness::ProtocolKind::fastcast:
            return static_cast<std::uint8_t>(fastcast::MsgType::gc_prune);
        default:
            return static_cast<std::uint8_t>(wbcast::MsgType::gc_prune);
    }
}

void BM_GcStall(benchmark::State& state, harness::ProtocolKind kind) {
    const std::int64_t per_round = state.range(0);
    const Duration interval = milliseconds(50);
    const Duration every = interval / per_round;
    const TimePoint load_end = milliseconds(1) + 4 * per_round * every;
    GcCallStats stats;
    for (auto _ : state) {
        harness::ClusterConfig cfg;
        cfg.kind = kind;
        cfg.groups = 1;
        cfg.group_size = 3;
        cfg.clients = 1;
        cfg.delta = microseconds(20);
        cfg.client_retry = seconds(3600);
        cfg.replica.election_enabled = false;
        cfg.replica.retry_interval = interval;
        cfg.replica.gc_interval = interval;
        cfg.wrap_replica = [&](ProcessId, std::unique_ptr<Process> r) {
            return std::make_unique<GcCallTimer>(
                std::move(r), gc_prune_type(kind), load_end, stats);
        };
        harness::Cluster c(std::move(cfg));
        for (std::int64_t i = 0; i < 4 * per_round; ++i)
            c.multicast_at(milliseconds(1) + i * every, 0, {0});
        c.run_for(6 * interval);
        if (c.log().completed_count() <
            static_cast<std::size_t>(4 * per_round)) {
            state.SkipWithError("load did not complete");
            return;
        }
    }
    state.counters["max_gc_call_us"] = stats.max_us;
    state.counters["max_entries_per_call"] =
        static_cast<double>(stats.max_entries);
    state.SetLabel(harness::to_string(kind));
    g_gc_stall[harness::to_string(kind)][per_round] = stats;
}
BENCHMARK_CAPTURE(BM_GcStall, wbcast, harness::ProtocolKind::wbcast)
    ->Arg(1000)->Arg(10000)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GcStall, ftskeen, harness::ProtocolKind::ftskeen)
    ->Arg(1000)->Arg(10000)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GcStall, fastcast, harness::ProtocolKind::fastcast)
    ->Arg(1000)->Arg(10000)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_HistogramRecord(benchmark::State& state) {
    stats::Histogram h;
    Rng rng(3);
    for (auto _ : state) {
        h.record(static_cast<Duration>(rng.next_below(100'000'000)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
    stats::Histogram h;
    Rng rng(3);
    for (int i = 0; i < 100000; ++i)
        h.record(static_cast<Duration>(rng.next_below(100'000'000)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.percentile(0.99));
    }
}
BENCHMARK(BM_HistogramPercentile);

void BM_RngNext(benchmark::State& state) {
    Rng rng(9);
    for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

}  // namespace
}  // namespace wbam

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    wbam::print_stage_tables();
    wbam::write_bench_json();
    return 0;
}
