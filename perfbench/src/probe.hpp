// Measurement from outside the program: a Process wrapper around every
// ctrl-plane role (NodeShim, BenchDriver, Coordinator) and a Context
// wrapper around the runtime context each handler receives. Untraced runs
// only watch the coordinator (the START it sends opens the window; the
// raw SAMPLE latencies it receives give exact percentiles). Traced runs
// also time every handler and every send on the thread-CPU and runtime
// clocks, count sends by envelope module, and keep a bounded in-memory
// span log with per-channel FIFO sequence numbers for causal linkage.
#ifndef PERFBENCH_PROBE_HPP
#define PERFBENCH_PROBE_HPP

#include <pthread.h>
#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "common/process.hpp"
#include "common/topology.hpp"
#include "trace.hpp"

namespace perfbench {

using wbam::BufferSlice;
using wbam::Context;
using wbam::Duration;
using wbam::ProcessId;
using wbam::TimePoint;
using wbam::TimerId;

// Handler-time buckets, attributed by the inbound envelope's module.
enum Layer : int {
    layer_proto = 0,  // protocol + client requests on replicas
    layer_timer,      // replica timers (protocol retries, heartbeats)
    layer_paxos,
    layer_elect,
    layer_ctrl,       // control plane (coordinator, ctrl on nodes)
    layer_client,     // the driver's acks and timers
    num_layers,
};

enum class Role : std::uint8_t { leader, follower, driver, coordinator };

inline const char* to_string(Role r) {
    static const char* const names[] = {"leader", "follower", "driver",
                                        "coordinator"};
    return names[static_cast<int>(r)];
}

// The coordinator is, by the ctrl plane's convention, the last client.
inline ProcessId coordinator_of(const wbam::Topology& topo) {
    return topo.client(topo.num_clients() - 1);
}

inline Role role_of(const wbam::Topology& topo, ProcessId p) {
    if (topo.is_replica(p))
        return topo.initial_leader(topo.group_of(p)) == p ? Role::leader
                                                          : Role::follower;
    return p == coordinator_of(topo) ? Role::coordinator : Role::driver;
}

inline std::int64_t thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline std::int64_t host_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// Single writer (the process's own loop thread); the main thread reads
// the atomics at the window edges.
struct ProcStats {
    using Cell = std::atomic<std::int64_t>;
    static void add(Cell& c, std::int64_t v) {
        c.store(c.load(std::memory_order_relaxed) + v,
                std::memory_order_relaxed);
    }

    std::array<Cell, num_layers> cpu{}, wall{};  // handler self time
    Cell send_wall{0}, send_bytes{0};
    std::array<Cell, 8> sends_by_module{};
    Cell resends{0};  // driver: ops re-sent from its retry timer
    std::atomic<bool> have_clock{false};
    std::atomic<clockid_t> cpu_clock{};

    // Loop-thread only until the world is shut down.
    std::vector<Span> spans;
    std::vector<std::uint32_t> sent_on, recv_on;  // per peer channel counts
    std::uint64_t last_resend_about = 0;
};

// Everything one run's wrappers share with the main thread.
struct RunProbe {
    RunProbe(const wbam::Topology& t, bool trace, std::size_t span_cap)
        : topo(t), tracing(trace), span_cap_per_proc(span_cap) {
        for (int p = 0; p < topo.num_processes(); ++p) {
            auto st = std::make_unique<ProcStats>();
            st->sent_on.assign(static_cast<std::size_t>(topo.num_processes()), 0);
            st->recv_on.assign(static_cast<std::size_t>(topo.num_processes()), 0);
            procs.push_back(std::move(st));
        }
    }
    RunProbe(const RunProbe&) = delete;
    RunProbe& operator=(const RunProbe&) = delete;

    const wbam::Topology topo;
    const bool tracing;
    const std::size_t span_cap_per_proc;
    std::vector<std::unique_ptr<ProcStats>> procs;

    // Set from the coordinator's START (shared epoch: absolute times).
    std::atomic<TimePoint> window_open{0}, window_close{0};
    std::atomic<std::int64_t> start_sent_host_ns{0};
    // Traced runs record spans only while this is set (the window).
    std::atomic<bool> recording{false};

    // Raw latencies the coordinator received in SAMPLE messages.
    std::mutex samples_mutex;
    std::vector<std::int64_t> samples;
};

class TracedProcess final : public wbam::Process {
public:
    TracedProcess(std::unique_ptr<wbam::Process> inner, ProcessId pid,
                  RunProbe& probe);
    TracedProcess(const TracedProcess&) = delete;
    TracedProcess& operator=(const TracedProcess&) = delete;

    void on_start(Context& ctx) override;
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override;
    void on_timer(Context& ctx, TimerId id) override;

private:
    // Forwards to the runtime context of the current handler; sends are
    // timed and counted when tracing.
    class Ctx final : public Context {
    public:
        explicit Ctx(TracedProcess& owner) : owner_(owner) {}
        void bind(Context& in) { in_ = &in; }
        ProcessId self() const override { return in_->self(); }
        TimePoint now() const override { return in_->now(); }
        void send(ProcessId to, BufferSlice bytes) override;
        void send_many(const std::vector<ProcessId>& to,
                       BufferSlice bytes) override;
        TimerId set_timer(Duration d) override { return in_->set_timer(d); }
        void cancel_timer(TimerId id) override { in_->cancel_timer(id); }
        wbam::Rng& rng() override { return in_->rng(); }
        void charge(Duration w) override { in_->charge(w); }

    private:
        TracedProcess& owner_;
        Context* in_ = nullptr;
    };

    struct Frame {
        std::int64_t child_wall = 0;  // time inside the handler's sends
        std::int64_t span = -1;
        SpanKind kind = SpanKind::message;
    };

    template <typename Fn>
    void handle(Context& ctx, SpanKind kind, ProcessId from,
                const BufferSlice* bytes, Fn&& fn);
    bool room_for_span();
    void watch_send(const BufferSlice& bytes);
    void watch_receive(const BufferSlice& bytes);
    // Times `send` (which hands `bytes` to the runtime) as a child span of
    // the current handler, one span per recipient.
    template <typename Send>
    void timed_send(const ProcessId* to, std::size_t n,
                    const BufferSlice& bytes, Send&& send);
    Layer layer_of(SpanKind kind, std::uint8_t module) const;

    std::unique_ptr<wbam::Process> inner_;
    ProcessId pid_;
    RunProbe& probe_;
    ProcStats& st_;
    Role role_;
    Ctx ctx_;
    Frame* cur_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_HPP
