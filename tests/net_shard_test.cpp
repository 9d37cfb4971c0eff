// Unit and integration coverage of the sharded transport primitives
// (net/shard.hpp, net/send_queue.hpp) and the multi-loop NetWorld:
// affinity properties, mailbox wake semantics, writev coalescing (the
// one-syscall-per-burst contract and its budget/partial-write edge
// cases), reconnect/retransmit when the channel lives on a non-primary
// shard, and the one-read-per-readiness-event receive path under mixed
// frame sizes and a one-sided close. The cross-world tests double as the
// TSan stress target (CI runs this binary under -fsanitize=thread).
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.hpp"
#include "net/send_queue.hpp"
#include "net/shard.hpp"
#include "net/world.hpp"
#include "obs/metrics.hpp"

namespace wbam::net {
namespace {

// --- affinity ----------------------------------------------------------------

TEST(ShardAffinityTest, TotalStableAndSymmetric) {
    for (const int shards : {1, 2, 4, 7, 64}) {
        for (ProcessId a = 0; a < 40; ++a) {
            for (ProcessId b = 0; b < 40; ++b) {
                const int s = shard_for(a, b, shards);
                EXPECT_GE(s, 0);
                EXPECT_LT(s, shards);
                EXPECT_EQ(s, shard_for(a, b, shards)) << "stable";
                EXPECT_EQ(s, shard_for(b, a, shards)) << "symmetric";
            }
        }
    }
}

TEST(ShardAffinityTest, SingleShardAlwaysZero) {
    EXPECT_EQ(shard_for(3, 9, 1), 0);
    EXPECT_EQ(shard_for(3, 9, 0), 0);
    EXPECT_EQ(shard_for(3, 9, -2), 0);
}

TEST(ShardAffinityTest, PairsSpreadAcrossShards) {
    const int shards = 4;
    std::vector<int> hits(static_cast<std::size_t>(shards), 0);
    int pairs = 0;
    for (ProcessId a = 0; a < 32; ++a) {
        for (ProcessId b = a + 1; b < 32; ++b) {
            ++hits[static_cast<std::size_t>(shard_for(a, b, shards))];
            ++pairs;
        }
    }
    // Full-avalanche mix: every shard owns a healthy share (>= half of a
    // perfectly even split).
    for (const int h : hits) EXPECT_GE(h, pairs / shards / 2);
}

TEST(ShardAffinityTest, ResolveShardCount) {
    EXPECT_EQ(resolve_shard_count(1), 1);
    EXPECT_EQ(resolve_shard_count(4), 4);
    EXPECT_EQ(resolve_shard_count(64), 64);
    EXPECT_EQ(resolve_shard_count(100), 64);  // explicit cap
    const int auto_count = resolve_shard_count(0);
    EXPECT_GE(auto_count, 1);
    EXPECT_LE(auto_count, 8);
}

// --- wake fd + mailbox -------------------------------------------------------

bool readable(int fd) {
    pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, 0) == 1 && (p.revents & POLLIN) != 0;
}

TEST(WakeFdTest, WakeMakesPollFdReadableAndClearDrains) {
    WakeFd w;
    ASSERT_GE(w.poll_fd(), 0);
    EXPECT_FALSE(readable(w.poll_fd()));
    w.wake();
    w.wake();  // coalesces; still one readable event
    EXPECT_TRUE(readable(w.poll_fd()));
    w.clear();
    EXPECT_FALSE(readable(w.poll_fd()));
}

TEST(MailboxTest, PushReportsEmptyToNonEmptyTransitionOnly) {
    Mailbox<int> m;
    EXPECT_TRUE(m.push(1));   // empty -> non-empty
    EXPECT_FALSE(m.push(2));  // already non-empty: no second wake needed
    const auto batch = m.drain();
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0], 1);
    EXPECT_EQ(batch[1], 2);
    EXPECT_TRUE(m.empty());
    EXPECT_TRUE(m.push(3));  // transition again after the drain
}

TEST(MailboxTest, MpscStressKeepsPerProducerOrderAndWakeInvariant) {
    Mailbox<std::pair<int, int>> m;  // (producer, seq)
    constexpr int producers = 4;
    constexpr int per_producer = 2000;
    std::atomic<std::uint64_t> wakes{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&m, &wakes, p] {
            for (int i = 0; i < per_producer; ++i)
                if (m.push({p, i})) wakes.fetch_add(1);
        });
    }
    std::vector<int> next(producers, 0);
    std::size_t drained = 0;
    std::uint64_t drains_from_nonempty = 0;
    while (drained < producers * per_producer) {
        const auto batch = m.drain();
        if (batch.empty()) {
            std::this_thread::yield();
            continue;
        }
        ++drains_from_nonempty;
        for (const auto& [p, i] : batch) {
            EXPECT_EQ(i, next[static_cast<std::size_t>(p)]++)
                << "per-producer FIFO";
            ++drained;
        }
    }
    for (auto& t : threads) t.join();
    // Every observed batch began with an empty -> non-empty transition the
    // producers reported (the wake-exactly-once-per-batch invariant).
    EXPECT_GE(wakes.load(), 1u);
    EXPECT_LE(wakes.load(), drains_from_nonempty + producers);
    EXPECT_TRUE(m.empty());
}

// --- inline ack header -------------------------------------------------------

TEST(FrameTest, MakeAckHeaderMatchesHeapEncodedAck) {
    for (const std::uint64_t upto : {0ULL, 1ULL, 127ULL, 128ULL, 300000ULL,
                                     ~0ULL}) {
        const DataHeader h = make_ack_header(upto);
        const Buffer heap = encode_ack(upto);
        // Same payload bytes behind the same length prefix.
        ASSERT_EQ(h.size(), frame_header_size + heap.size());
        EXPECT_EQ(get_frame_header(h.data()), heap.size());
        EXPECT_EQ(std::memcmp(h.data() + frame_header_size, heap.data(),
                              heap.size()),
                  0);
    }
}

// --- send queue over a socketpair --------------------------------------------

struct SocketPair {
    int a = -1;
    int b = -1;
    SocketPair() {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
            a = fds[0];
            b = fds[1];
        }
    }
    ~SocketPair() {
        if (a >= 0) ::close(a);
        if (b >= 0) ::close(b);
    }
};

BufferSlice body_of(std::size_t n, std::uint8_t fill) {
    return Buffer(Bytes(n, fill));
}

// Reads everything currently buffered on `fd` into the reassembler, through
// the runtime's own read step (one right-sized read per call).
void pump(int fd, FrameReassembler& rx) {
    while (rx.read_from(fd).bytes > 0) {
    }
}

// One call = one read, sized to what the kernel has queued: everything up
// to read_chunk in one go, a larger backlog over several calls, nothing
// (but no error) on an empty open socket, and EOF once the peer closed —
// found by the floor-sized read even though FIONREAD reports 0.
TEST(ReadFromTest, OneReadSizedToQueuedBytesThenEofOnClose) {
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    auto write_frame = [&](std::size_t body, std::uint8_t fill) {
        Bytes wire(frame_header_size + body, fill);
        put_frame_header(wire.data(), static_cast<std::uint32_t>(body));
        ASSERT_EQ(::write(sp.a, wire.data(), wire.size()),
                  static_cast<ssize_t>(wire.size()));
    };
    FrameReassembler rx;
    std::vector<std::size_t> sizes;
    auto drain = [&] {
        ASSERT_TRUE(rx.drain([&](BufferSlice f) { sizes.push_back(f.size()); }));
    };

    for (int i = 0; i < 3; ++i) write_frame(100, static_cast<std::uint8_t>(i));
    ReadResult r = rx.read_from(sp.b);
    EXPECT_EQ(r.status, ReadResult::Status::again);
    EXPECT_EQ(r.bytes, 3 * (frame_header_size + 100));
    drain();
    EXPECT_EQ(sizes, (std::vector<std::size_t>{100, 100, 100}));

    const std::size_t big = read_chunk + 1000;
    write_frame(big, 0x7e);
    r = rx.read_from(sp.b);
    EXPECT_EQ(r.bytes, read_chunk) << "one read never exceeds read_chunk";
    drain();
    EXPECT_EQ(sizes.size(), 3u);
    r = rx.read_from(sp.b);
    EXPECT_EQ(r.bytes, big + frame_header_size - read_chunk);
    drain();
    ASSERT_EQ(sizes.size(), 4u);
    EXPECT_EQ(sizes[3], big);

    r = rx.read_from(sp.b);  // open, nothing queued
    EXPECT_EQ(r.bytes, 0u);
    EXPECT_EQ(r.status, ReadResult::Status::again);

    ::close(sp.a);
    sp.a = -1;
    r = rx.read_from(sp.b);
    EXPECT_EQ(r.bytes, 0u);
    EXPECT_EQ(r.status, ReadResult::Status::eof);
}

TEST(SendQueueTest, BurstOfFramesFlushesInOneWritev) {
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    SendQueue q;
    constexpr int burst = 10;
    // The per-queue counters also feed the process-global transport_stats
    // mirror, which other tests (and the net runtime's background loop
    // threads) touch concurrently: the global assertion below uses a
    // scoped delta, never absolute values.
    const obs::CounterDelta delta;
    for (int i = 0; i < burst; ++i)
        q.push_data(body_of(100, static_cast<std::uint8_t>(i)));
    EXPECT_EQ(q.pending_frames(), static_cast<std::size_t>(burst));

    bool progressed = false;
    EXPECT_EQ(q.flush(sp.a, &progressed), SendQueue::FlushStatus::idle);
    EXPECT_TRUE(progressed);
    // The coalescing contract: >= 8 queued frames, ONE gathered write.
    EXPECT_EQ(q.writev_calls(), 1u);
    EXPECT_EQ(q.frames_sent(), static_cast<std::uint64_t>(burst));
    EXPECT_GE(delta("net/writev_calls"), 1u);
    EXPECT_GE(delta("net/frames_sent"), static_cast<std::uint64_t>(burst));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.unacked_frames(), static_cast<std::size_t>(burst));

    FrameReassembler rx;
    pump(sp.b, rx);
    int seen = 0;
    ASSERT_TRUE(rx.drain([&](BufferSlice frame) {
        ASSERT_EQ(frame[0], static_cast<std::uint8_t>(FrameType::data));
        ++seen;
    }));
    EXPECT_EQ(seen, burst);
}

TEST(SendQueueTest, IovecBudgetSplitsBurstIntoMultipleWritevs) {
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    FlushLimits limits;
    limits.max_iov = 2;  // one header+body pair per batch
    SendQueue q(limits);
    constexpr int burst = 5;
    for (int i = 0; i < burst; ++i)
        q.push_data(body_of(50, static_cast<std::uint8_t>(i)));
    EXPECT_EQ(q.flush(sp.a), SendQueue::FlushStatus::idle);
    EXPECT_EQ(q.writev_calls(), static_cast<std::uint64_t>(burst));
    EXPECT_EQ(q.frames_sent(), static_cast<std::uint64_t>(burst));

    FrameReassembler rx;
    pump(sp.b, rx);
    int seen = 0;
    ASSERT_TRUE(rx.drain([&](BufferSlice) { ++seen; }));
    EXPECT_EQ(seen, burst);
}

TEST(SendQueueTest, ByteBudgetBoundsABatchButHeadAlwaysGoes) {
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    FlushLimits limits;
    limits.max_bytes = 64;  // smaller than a single 100-byte frame
    SendQueue q(limits);
    q.push_data(body_of(100, 0xaa));
    q.push_data(body_of(100, 0xbb));
    EXPECT_EQ(q.flush(sp.a), SendQueue::FlushStatus::idle);
    // Each frame alone exceeds the budget, so each went in its own batch —
    // but both DID go (the head frame is always included).
    EXPECT_EQ(q.writev_calls(), 2u);
    EXPECT_EQ(q.frames_sent(), 2u);
}

TEST(SendQueueTest, PartialWriteResumesByteExact) {
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    // Shrink the kernel buffers so a large frame cannot fit in one write.
    const int small = 4096;
    ASSERT_EQ(::setsockopt(sp.a, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
              0);
    ASSERT_EQ(::setsockopt(sp.b, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small)),
              0);
    // Non-blocking writer: flush must see EAGAIN, not block the test.
    ASSERT_EQ(::fcntl(sp.a, F_SETFL, O_NONBLOCK), 0);

    const std::size_t big = 256 * 1024;
    Bytes expected_body(big);
    for (std::size_t i = 0; i < big; ++i)
        expected_body[i] = static_cast<std::uint8_t>(i * 31 + 7);
    SendQueue q;
    q.push_data(Buffer(Bytes(expected_body)));
    q.push_data(body_of(64, 0xcc));  // a trailing frame rides behind

    FrameReassembler rx;
    std::vector<Bytes> received;
    int blocked_rounds = 0;
    for (int round = 0; round < 10000 && received.size() < 2; ++round) {
        const auto status = q.flush(sp.a);
        ASSERT_NE(status, SendQueue::FlushStatus::error);
        if (status == SendQueue::FlushStatus::blocked) ++blocked_rounds;
        pump(sp.b, rx);
        ASSERT_TRUE(rx.drain([&](BufferSlice frame) {
            received.emplace_back(frame.begin(), frame.end());
        }));
    }
    ASSERT_GT(blocked_rounds, 0) << "test never exercised a partial write";
    ASSERT_EQ(received.size(), 2u);
    // Frame payload = [type][seq varint][body]: verify the body survived
    // the partial-write resume byte-exact.
    const Bytes& first = received[0];
    ASSERT_GT(first.size(), big);
    EXPECT_EQ(first[0], static_cast<std::uint8_t>(FrameType::data));
    EXPECT_TRUE(std::equal(expected_body.begin(), expected_body.end(),
                           first.end() - static_cast<std::ptrdiff_t>(big)));
    EXPECT_EQ(received[1].size(), 64u + 2u);  // type + seq(=2) + body
}

TEST(SendQueueTest, AckPrunesAndRequeueReplaysUnackedInOrder) {
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    SendQueue q;
    EXPECT_EQ(q.push_data(body_of(10, 0x01)), 1u);
    EXPECT_EQ(q.push_data(body_of(10, 0x02)), 2u);
    EXPECT_EQ(q.push_data(body_of(10, 0x03)), 3u);
    EXPECT_EQ(q.flush(sp.a), SendQueue::FlushStatus::idle);
    EXPECT_EQ(q.unacked_frames(), 3u);

    q.on_ack(1);
    EXPECT_EQ(q.unacked_frames(), 2u);

    // The connection dies: seqs 2 and 3 are owed again, in order, and a
    // queued control frame (an ack) is dropped — it regenerates later.
    q.push_control(make_ack_header(7));
    q.requeue_unacked();
    EXPECT_EQ(q.unacked_frames(), 0u);
    EXPECT_EQ(q.pending_frames(), 2u);

    EXPECT_EQ(q.flush(sp.a), SendQueue::FlushStatus::idle);
    FrameReassembler rx;
    pump(sp.b, rx);
    std::vector<std::uint8_t> fills;
    ASSERT_TRUE(rx.drain([&](BufferSlice frame) {
        fills.push_back(frame[frame.size() - 1]);
    }));
    // First flush delivered 1,2,3; the replay delivered 2,3 again.
    ASSERT_EQ(fills.size(), 5u);
    EXPECT_EQ(fills[3], 0x02);
    EXPECT_EQ(fills[4], 0x03);
}

// --- multi-shard worlds ------------------------------------------------------

// Echoes every message back to its sender.
class Echo final : public Process {
public:
    void on_start(Context&) override {}
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override {
        ctx.send(from, bytes);
    }
    void on_timer(Context&, TimerId) override {}
};

// Keeps `window` round trips to `peer` in flight until `total` complete.
class Pinger final : public Process {
public:
    Pinger(ProcessId peer, int total, int window,
           std::atomic<int>* completed)
        : peer_(peer), total_(total), window_(window), completed_(completed) {}

    void on_start(Context& ctx) override {
        for (int i = 0; i < window_ && issued_ < total_; ++i) {
            ++issued_;
            ctx.send(peer_, Bytes{0x5a});
        }
    }
    void on_message(Context& ctx, ProcessId, const BufferSlice&) override {
        completed_->fetch_add(1);
        if (issued_ < total_) {
            ++issued_;
            ctx.send(peer_, Bytes{0x5a});
        }
    }
    void on_timer(Context&, TimerId) override {}

private:
    ProcessId peer_;
    int total_;
    int window_;
    std::atomic<int>* completed_;
    int issued_ = 0;
};

struct PairedWorlds {
    static constexpr int pairs = 4;
    static constexpr int per_pair = 200;

    std::atomic<int> completed{0};
    Topology topo{1, 1, 2 * pairs - 1};
    std::unique_ptr<NetWorld> ping_world;
    std::unique_ptr<NetWorld> echo_world;

    explicit PairedWorlds(int shards) {
        NetConfig cfg;
        cfg.shards = shards;
        cfg.epoch = std::chrono::steady_clock::now();
        ping_world = std::make_unique<NetWorld>(topo, 101, cfg);
        echo_world = std::make_unique<NetWorld>(topo, 202, cfg);
        for (ProcessId p = 0; p < 2 * pairs; p += 2)
            ping_world->add_process(
                p, std::make_unique<Pinger>(p + 1, per_pair, 8, &completed));
        for (ProcessId p = 1; p < 2 * pairs; p += 2)
            echo_world->add_process(p, std::make_unique<Echo>());
        ClusterMap map;
        map.endpoints.resize(static_cast<std::size_t>(2 * pairs));
        for (ProcessId p = 0; p < 2 * pairs; ++p)
            map.endpoints[static_cast<std::size_t>(p)] = Endpoint{
                "127.0.0.1",
                (p % 2 == 0 ? *ping_world : *echo_world).port_of(p)};
        ping_world->set_cluster(map);
        echo_world->set_cluster(map);
    }

    int target() const { return pairs * per_pair; }

    bool await(int count, Duration timeout) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::nanoseconds(timeout);
        while (completed.load() < count) {
            if (std::chrono::steady_clock::now() > deadline) return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    }
};

TEST(NetShardTest, ExplicitShardCountIsResolved) {
    const Topology topo(1, 1, 1);
    NetConfig cfg;
    cfg.shards = 4;
    NetWorld world(topo, 1, cfg);
    EXPECT_EQ(world.shard_count(), 4);
}

TEST(NetShardTest, AllPairsCompleteAcrossFourShards) {
    PairedWorlds w(4);
    // The channels genuinely spread over loops: with 4 pairs on 4 shards at
    // least two distinct shards own traffic (deterministic affinity).
    std::set<int> owners;
    for (ProcessId p = 0; p < 2 * PairedWorlds::pairs; p += 2)
        owners.insert(shard_for(p, p + 1, 4));
    EXPECT_GE(owners.size(), 2u);

    w.echo_world->start();
    w.ping_world->start();
    EXPECT_TRUE(w.await(w.target(), seconds(30)));
    w.ping_world->shutdown();
    w.echo_world->shutdown();
    EXPECT_EQ(w.completed.load(), w.target());
}

TEST(NetShardTest, ReconnectRetransmitsOnNonPrimaryShard) {
    PairedWorlds w(4);
    // Precondition for the test's name: some channel lives on shard != 0.
    bool non_primary = false;
    for (ProcessId p = 0; p < 2 * PairedWorlds::pairs; p += 2)
        non_primary |= shard_for(p, p + 1, 4) != 0;
    ASSERT_TRUE(non_primary);

    w.echo_world->start();
    w.ping_world->start();
    // Let some traffic flow, then sever every connection on both sides —
    // unacked frames must retransmit over re-dialled sockets, wherever
    // their owning loop lives.
    ASSERT_TRUE(w.await(w.target() / 4, seconds(30)));
    w.ping_world->drop_connections();
    w.echo_world->drop_connections();
    EXPECT_TRUE(w.await(w.target(), seconds(60)));
    w.ping_world->shutdown();
    w.echo_world->shutdown();
    EXPECT_EQ(w.completed.load(), w.target());
}

TEST(NetShardTest, BusyPollWindowStillDeliversEverything) {
    PairedWorlds w(2);
    // Rebuild with busy-poll enabled: same contract, spinnier loops.
    NetConfig cfg;
    cfg.shards = 2;
    cfg.busy_poll = microseconds(200);
    cfg.epoch = std::chrono::steady_clock::now();
    std::atomic<int> completed{0};
    const Topology topo(1, 1, 3);
    NetWorld ping(topo, 7, cfg);
    NetWorld echo(topo, 8, cfg);
    ping.add_process(0, std::make_unique<Pinger>(1, 100, 4, &completed));
    ping.add_process(2, std::make_unique<Pinger>(3, 100, 4, &completed));
    echo.add_process(1, std::make_unique<Echo>());
    echo.add_process(3, std::make_unique<Echo>());
    ClusterMap map;
    map.endpoints = {{"127.0.0.1", ping.port_of(0)},
                     {"127.0.0.1", echo.port_of(1)},
                     {"127.0.0.1", ping.port_of(2)},
                     {"127.0.0.1", echo.port_of(3)}};
    ping.set_cluster(map);
    echo.set_cluster(map);
    echo.start();
    ping.start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (completed.load() < 200 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ping.shutdown();
    echo.shutdown();
    EXPECT_EQ(completed.load(), 200);
}

// --- one read per readiness event, end to end --------------------------------

// Records every payload it receives, in arrival order.
class Sink final : public Process {
public:
    void on_start(Context&) override {}
    void on_message(Context&, ProcessId, const BufferSlice& bytes) override {
        {
            const std::lock_guard<std::mutex> guard(mutex_);
            got_.emplace_back(bytes.begin(), bytes.end());
        }
        count_.fetch_add(1);
    }
    void on_timer(Context&, TimerId) override {}

    bool await(std::size_t n, Duration timeout) const {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::nanoseconds(timeout);
        while (count_.load() < n) {
            if (std::chrono::steady_clock::now() > deadline) return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    }
    std::vector<Bytes> got() const {
        const std::lock_guard<std::mutex> guard(mutex_);
        return got_;
    }

private:
    mutable std::mutex mutex_;
    std::vector<Bytes> got_;
    std::atomic<std::size_t> count_{0};
};

// Payload `i` of `n` bytes: a tag that is not the batch-frame tag, the
// index, then a pattern of (i, offset) — loss, duplication, reordering and
// corruption all show up as a mismatch against the sent sequence.
Buffer stream_payload(std::uint32_t i, std::size_t n) {
    Bytes b(n);
    for (std::size_t k = 0; k < n; ++k)
        b[k] = static_cast<std::uint8_t>(i * 131u + k * 7u + k / 251u);
    b[0] = 0xa5;
    for (std::size_t k = 1; k < n && k < 5; ++k)
        b[k] = static_cast<std::uint8_t>(i >> (8 * (k - 1)));
    return Buffer(std::move(b));
}

enum class Closer { sender, receiver };

// Streams payloads of 1 B, 64 KiB - 1, 64 KiB + 1 and 1 MiB, interleaved
// with a burst of 10k small frames, from a process in one world to a
// process in another. Frames above the 64 KiB read cap take several reads,
// and so several poll turns, to reassemble. Between the two halves ONE
// world drops its connections: its peer learns of it from a read that
// returns EOF with nothing queued (or from a failed write), redials, and
// the channel must lose, duplicate and reorder nothing.
void stream_mixed_sizes_across_close(Closer closer) {
    NetConfig cfg;
    cfg.shards = 2;
    cfg.epoch = std::chrono::steady_clock::now();
    const Topology topo(1, 1, 1);
    NetWorld tx_world(topo, 31, cfg);
    NetWorld rx_world(topo, 32, cfg);
    tx_world.add_process(0, std::make_unique<Sink>());  // sends only
    auto sink_owned = std::make_unique<Sink>();
    const Sink& sink = *sink_owned;
    rx_world.add_process(1, std::move(sink_owned));
    ClusterMap map;
    map.endpoints = {{"127.0.0.1", tx_world.port_of(0)},
                     {"127.0.0.1", rx_world.port_of(1)}};
    tx_world.set_cluster(map);
    rx_world.set_cluster(map);
    rx_world.start();
    tx_world.start();

    constexpr std::size_t small = 16;
    constexpr int burst_quarter = 2500;
    std::vector<Buffer> sent;
    auto send_half = [&](std::size_t first_big, std::size_t second_big) {
        std::vector<Buffer> half;
        for (const std::size_t big : {first_big, second_big}) {
            half.push_back(stream_payload(
                static_cast<std::uint32_t>(sent.size() + half.size()), big));
            for (int k = 0; k < burst_quarter; ++k)
                half.push_back(stream_payload(
                    static_cast<std::uint32_t>(sent.size() + half.size()),
                    small));
        }
        sent.insert(sent.end(), half.begin(), half.end());
        tx_world.run_on(0, [half](Context& ctx) {
            for (const Buffer& b : half) ctx.send(1, b);
        });
    };

    send_half(1, 64 * 1024 - 1);
    ASSERT_TRUE(sink.await(sent.size(), seconds(60)));
    (closer == Closer::sender ? tx_world : rx_world).drop_connections();
    send_half(64 * 1024 + 1, 1024 * 1024);
    EXPECT_TRUE(sink.await(sent.size(), seconds(60)));
    tx_world.shutdown();
    rx_world.shutdown();

    const std::vector<Bytes> got = sink.got();
    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
        ASSERT_EQ(got[i].size(), sent[i].size()) << "payload " << i;
        ASSERT_TRUE(std::equal(got[i].begin(), got[i].end(),
                               sent[i].data()))
            << "payload " << i << " corrupted or out of order";
    }
}

TEST(OneReadRuleTest, MixedFrameSizesSurviveSenderSideClose) {
    stream_mixed_sizes_across_close(Closer::sender);
}

TEST(OneReadRuleTest, MixedFrameSizesSurviveReceiverSideClose) {
    stream_mixed_sizes_across_close(Closer::receiver);
}

}  // namespace
}  // namespace wbam::net
