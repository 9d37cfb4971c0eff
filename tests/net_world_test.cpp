// Runtime-primitive tests for the TCP runtime: a pair of NetWorlds wired
// over loopback by harness::make_loopback_worlds (one world per process,
// each with its own poll loop). Covers the Context contract the protocols
// rely on — FIFO channels, timers and their cancellation, run_on
// injection on the target's own context, and one loop thread running
// every callback of every process a world hosts. No exact-timing assertions
// (wall-clock scheduling jitter), only ordering, counts and identities.
// Full protocol runs over the same wiring live in net_integration_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/live_cluster.hpp"

namespace wbam {
namespace {

class Probe final : public Process {
public:
    void on_start(Context&) override {
        const std::lock_guard<std::mutex> guard(mutex);
        home = std::this_thread::get_id();
    }
    void on_message(Context&, ProcessId, const BufferSlice& b) override {
        const std::lock_guard<std::mutex> guard(mutex);
        received.push_back(b);
        received_on = std::this_thread::get_id();
    }
    void on_timer(Context&, TimerId id) override {
        const std::lock_guard<std::mutex> guard(mutex);
        fired.push_back(id);
    }

    std::size_t received_count() const {
        const std::lock_guard<std::mutex> guard(mutex);
        return received.size();
    }
    std::size_t fired_count() const {
        const std::lock_guard<std::mutex> guard(mutex);
        return fired.size();
    }

    mutable std::mutex mutex;
    std::thread::id home;
    std::thread::id received_on;
    std::vector<BufferSlice> received;
    std::vector<TimerId> fired;
};

// Processes 0 and 1 (Topology(1, 1, 1): one replica, one client), each in
// its own started NetWorld.
struct WorldPair {
    WorldPair() {
        worlds = harness::make_loopback_worlds(
            Topology(1, 1, 1), /*seed=*/7,
            [this](ProcessId p) -> std::unique_ptr<Process> {
                auto probe = std::make_unique<Probe>();
                probes[static_cast<std::size_t>(p)] = probe.get();
                return probe;
            });
        for (auto& w : worlds) w->start();
    }
    ~WorldPair() { shutdown(); }

    void run_on(ProcessId p, std::function<void(Context&)> fn) {
        worlds[static_cast<std::size_t>(p)]->run_on(p, std::move(fn));
    }
    void shutdown() {
        for (auto& w : worlds) w->shutdown();
    }

    std::vector<std::unique_ptr<net::NetWorld>> worlds;
    Probe* probes[2] = {nullptr, nullptr};
};

// Polls `done` every 2 ms until it holds or `timeout` elapses.
bool wait_until(const std::function<bool()>& done,
                std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!done()) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

TEST(NetWorldTest, RunOnSendsArriveInFifoOrder) {
    WorldPair pair;
    pair.run_on(0, [](Context& ctx) {
        for (std::uint8_t i = 0; i < 50; ++i) ctx.send(1, Bytes{i});
    });
    Probe* b = pair.probes[1];
    ASSERT_TRUE(wait_until([b] { return b->received_count() == 50; },
                           std::chrono::seconds(10)));
    pair.shutdown();
    ASSERT_EQ(b->received.size(), 50u);
    for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(b->received[i], Bytes{i});
}

TEST(NetWorldTest, TimerFiresOnceAndCancelledTimerNever) {
    WorldPair pair;
    std::atomic<TimerId> kept{invalid_timer};
    std::atomic<TimerId> cancelled{invalid_timer};
    pair.run_on(0, [&kept, &cancelled](Context& ctx) {
        kept.store(ctx.set_timer(milliseconds(5)));
        cancelled.store(ctx.set_timer(milliseconds(5)));
        ctx.cancel_timer(cancelled.load());
    });
    Probe* a = pair.probes[0];
    ASSERT_TRUE(wait_until([a] { return a->fired_count() >= 1; },
                           std::chrono::seconds(10)));
    // Ten times the timers' delay: a cancelled timer that leaked would
    // have fired by now.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pair.shutdown();
    ASSERT_NE(kept.load(), cancelled.load());
    ASSERT_EQ(a->fired.size(), 1u);
    EXPECT_EQ(a->fired[0], kept.load());
}

TEST(NetWorldTest, RunOnExecutesOnTargetContextAndSelfSendIsDelivered) {
    WorldPair pair;
    std::atomic<ProcessId> seen{invalid_process};
    std::thread::id ran_on;
    pair.run_on(1, [&seen, &ran_on](Context& ctx) {
        ran_on = std::this_thread::get_id();
        seen.store(ctx.self());
        ctx.send(ctx.self(), Bytes{0x7e});
    });
    Probe* b = pair.probes[1];
    ASSERT_TRUE(wait_until([b] { return b->received_count() == 1; },
                           std::chrono::seconds(10)));
    pair.shutdown();
    EXPECT_EQ(seen.load(), 1);
    // The thunk, the process's on_start and the self-delivery all ran on
    // the process's home loop.
    EXPECT_EQ(ran_on, b->home);
    EXPECT_EQ(b->received_on, b->home);
    ASSERT_EQ(b->received.size(), 1u);
    EXPECT_EQ(b->received[0], Bytes{0x7e});
    EXPECT_EQ(pair.probes[0]->received_count(), 0u);
}

// Records the thread each kind of callback ran on: on_start, the first
// message, and a timer it sets for itself in on_start.
class ThreadProbe final : public Process {
public:
    void on_start(Context& ctx) override {
        const std::lock_guard<std::mutex> guard(mutex);
        started_on = std::this_thread::get_id();
        ctx.set_timer(milliseconds(1));
    }
    void on_message(Context&, ProcessId, const BufferSlice&) override {
        const std::lock_guard<std::mutex> guard(mutex);
        if (received_on == std::thread::id{})
            received_on = std::this_thread::get_id();
    }
    void on_timer(Context&, TimerId) override {
        const std::lock_guard<std::mutex> guard(mutex);
        fired_on = std::this_thread::get_id();
    }

    bool complete() const {
        const std::lock_guard<std::mutex> guard(mutex);
        return received_on != std::thread::id{} &&
               fired_on != std::thread::id{};
    }

    mutable std::mutex mutex;
    std::thread::id started_on;
    std::thread::id received_on;
    std::thread::id fired_on;
};

// Sends one message to each of `peers` from on_start.
class Greeter final : public Process {
public:
    explicit Greeter(std::vector<ProcessId> peers) : peers_(std::move(peers)) {}
    void on_start(Context& ctx) override {
        for (const ProcessId p : peers_) ctx.send(p, Bytes{0x01});
    }
    void on_message(Context&, ProcessId, const BufferSlice&) override {}
    void on_timer(Context&, TimerId) override {}

private:
    std::vector<ProcessId> peers_;
};

// A world with the default config hosts processes 0 and 1; process 2,
// in a second world, messages both. Every callback of both hosted
// processes runs on the one loop thread of their world.
TEST(NetWorldTest, OneWorldRunsEveryProcessOnOneThread) {
    const Topology topo(1, 1, 2);
    net::NetConfig cfg;
    cfg.epoch = std::chrono::steady_clock::now();
    net::NetWorld both(topo, 1, cfg);
    net::NetWorld other(topo, 2, cfg);
    auto owned0 = std::make_unique<ThreadProbe>();
    auto owned1 = std::make_unique<ThreadProbe>();
    const ThreadProbe* probes[2] = {owned0.get(), owned1.get()};
    both.add_process(0, std::move(owned0));
    both.add_process(1, std::move(owned1));
    other.add_process(2,
                      std::make_unique<Greeter>(std::vector<ProcessId>{0, 1}));
    net::ClusterMap map;
    map.endpoints = {{"127.0.0.1", both.port_of(0)},
                     {"127.0.0.1", both.port_of(1)},
                     {"127.0.0.1", other.port_of(2)}};
    both.set_cluster(map);
    other.set_cluster(map);
    both.start();
    other.start();
    EXPECT_TRUE(wait_until(
        [&] { return probes[0]->complete() && probes[1]->complete(); },
        std::chrono::seconds(10)));
    other.shutdown();
    both.shutdown();

    const std::thread::id loop = probes[0]->started_on;
    EXPECT_NE(loop, std::thread::id{});
    EXPECT_NE(loop, std::this_thread::get_id());
    for (const ThreadProbe* p : probes) {
        EXPECT_EQ(p->started_on, loop);
        EXPECT_EQ(p->received_on, loop);
        EXPECT_EQ(p->fired_on, loop);
    }
}

}  // namespace
}  // namespace wbam
