// Deterministic discrete-event simulation of an asynchronous message-
// passing system: reliable FIFO channels with pluggable delay models,
// per-process serial CPU costs (queueing => throughput saturation),
// crash-stop failures, link partitions (blocked links hold messages and
// re-send them on heal, preserving channel reliability; severed links
// drop them, modelling lossy outages), and an optional wire trace used
// by the correctness checkers.
#ifndef WBAM_SIM_WORLD_HPP
#define WBAM_SIM_WORLD_HPP

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "common/process.hpp"
#include "common/topology.hpp"
#include "sim/network.hpp"

namespace wbam::sim {

// Cost of handling one inbound message/timer at a process. Non-zero costs
// turn each process into a serial queueing station, which is what bounds
// throughput in the Fig. 7/8 experiments. `wakeup` is paid only when the
// message finds the process idle: back-to-back messages amortize it, which
// models the batching effect of real event-loop implementations.
struct CpuModel {
    Duration per_message = 0;
    Duration per_byte = 0;
    Duration wakeup = 0;

    Duration cost(std::size_t bytes) const {
        return per_message + per_byte * static_cast<Duration>(bytes);
    }
    bool is_zero() const {
        return per_message == 0 && per_byte == 0 && wakeup == 0;
    }
};

// One recorded send, with the envelope header pre-parsed (module 0xff if
// the payload was not a valid envelope).
struct SendRecord {
    TimePoint at = 0;
    ProcessId from = invalid_process;
    ProcessId to = invalid_process;
    std::uint8_t module = 0xff;
    std::uint8_t type = 0;
    MsgId about = invalid_msg;
    std::uint32_t size = 0;
};

class World {
public:
    World(Topology topo, std::unique_ptr<DelayModel> delays, std::uint64_t seed,
          CpuModel cpu = {});
    ~World();

    World(const World&) = delete;
    World& operator=(const World&) = delete;

    // -- setup ---------------------------------------------------------------
    void add_process(ProcessId id, std::unique_ptr<Process> p);
    Process& process(ProcessId id);
    // The process registered under id, or the first one it wraps (see
    // Process::wrapped) that is a T.
    template <typename T>
    T& process_as(ProcessId id) {
        for (Process* p = &process(id); p != nullptr; p = p->wrapped())
            if (auto* t = dynamic_cast<T*>(p)) return *t;
        detail::assert_fail("process_as", __FILE__, __LINE__,
                            "no process of the requested type");
    }

    // -- execution -------------------------------------------------------
    // Calls on_start on every registered process (once).
    void start();
    void run_until(TimePoint t);
    void run_for(Duration d) { run_until(now_ + d); }
    // Runs until no events remain or the horizon passes; true if drained.
    bool run_until_idle(TimePoint horizon);
    TimePoint now() const { return now_; }
    std::uint64_t events_processed() const { return events_processed_; }

    // -- fault & schedule injection ----------------------------------------
    void crash(ProcessId p);
    bool is_crashed(ProcessId p) const;
    // Replaces a crashed process with a fresh incarnation and boots it
    // (crash-recovery model: the replacement typically replays a WAL).
    // In-flight messages addressed to p reach the new incarnation.
    void restart(ProcessId p, std::unique_ptr<Process> proc);
    // Bidirectional partition; messages sent while blocked are held and
    // released (with fresh delays) when the link heals.
    void block_link(ProcessId a, ProcessId b);
    void unblock_link(ProcessId a, ProcessId b);
    // Bidirectional lossy partition: messages sent while severed are
    // DROPPED (still recorded in the send trace — they left the sender),
    // modelling a long outage whose traffic is lost rather than delayed.
    // This is what strands a member behind a GC floor: held-and-released
    // block_link traffic would let it catch up slot-by-slot on heal.
    void sever_link(ProcessId a, ProcessId b);
    void restore_link(ProcessId a, ProcessId b);
    // Severs/restores every link between p and the rest of the world.
    void sever_process(ProcessId p);
    void restore_process(ProcessId p);
    // Exact one-way delay override for a directed link (adversarial
    // schedules such as the Fig. 2 convoy scenario).
    void set_link_override(ProcessId from, ProcessId to, Duration one_way);
    void clear_link_override(ProcessId from, ProcessId to);
    // Runs fn at absolute time t (test orchestration).
    void at(TimePoint t, std::function<void()> fn);
    void after(Duration d, std::function<void()> fn) { at(now_ + d, std::move(fn)); }

    // -- introspection ----------------------------------------------------
    const Topology& topology() const { return topo_; }
    // Records every send into send_trace() (header only; bodies too if
    // keep_bodies). Off by default: tracing large runs is expensive.
    void enable_send_trace(bool on, bool keep_bodies = false);
    const std::vector<SendRecord>& send_trace() const { return trace_; }
    const std::vector<BufferSlice>& send_trace_bodies() const {
        return trace_bodies_;
    }
    void set_send_hook(
        std::function<void(const SendRecord&, const BufferSlice&)> hook);

    // Used by HostContext; not part of the public surface. Fan-outs share
    // the slice's storage across all recipients.
    void send_from(ProcessId from, ProcessId to, BufferSlice bytes);
    void send_many_from(ProcessId from, const std::vector<ProcessId>& to,
                        BufferSlice bytes);
    TimerId set_timer_for(ProcessId pid, Duration delay);
    void cancel_timer_for(ProcessId pid, TimerId id);
    Rng& rng_of(ProcessId pid);
    void charge_for(ProcessId pid, Duration cpu_work);
    // Cumulative CPU time consumed by a process (cost model accounting).
    Duration busy_time_of(ProcessId pid) const;

private:
    enum class Kind : std::uint8_t {
        msg_arrive,   // message reached the host NIC; queue for CPU
        msg_exec,     // CPU picks up the message
        timer_fire,
        timer_exec,
        custom,
    };

    using Payload = BufferSlice;

    struct Event {
        TimePoint at = 0;
        std::uint64_t seq = 0;
        Kind kind = Kind::custom;
        ProcessId pid = invalid_process;
        ProcessId from = invalid_process;
        TimerId timer = invalid_timer;
        Payload payload;
        std::unique_ptr<std::function<void()>> fn;
    };

    struct Host;

    static std::uint64_t link_key(ProcessId from, ProcessId to) {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
               static_cast<std::uint32_t>(to);
    }

    void push(Event ev);
    Event pop();
    void execute(Event& ev);
    void record_send(ProcessId from, ProcessId to, const BufferSlice& bytes);
    void schedule_arrival(ProcessId from, ProcessId to, Payload payload);
    void dispatch_message(Host& host, ProcessId from, const BufferSlice& bytes);
    Host& host(ProcessId id);
    const Host& host(ProcessId id) const;

    Topology topo_;
    std::unique_ptr<DelayModel> delays_;
    CpuModel cpu_;
    Rng net_rng_;
    Rng seed_rng_;

    std::vector<std::unique_ptr<Host>> hosts_;
    std::vector<Event> heap_;
    std::uint64_t next_seq_ = 0;
    TimePoint now_ = 0;
    std::uint64_t events_processed_ = 0;
    bool started_ = false;

    std::unordered_map<std::uint64_t, TimePoint> last_arrival_;
    std::unordered_set<std::uint64_t> blocked_links_;
    std::unordered_set<std::uint64_t> severed_links_;
    std::unordered_map<std::uint64_t, Duration> link_overrides_;
    std::unordered_map<std::uint64_t, std::vector<Payload>> held_;

    bool tracing_ = false;
    bool trace_keep_bodies_ = false;
    std::vector<SendRecord> trace_;
    std::vector<BufferSlice> trace_bodies_;
    std::function<void(const SendRecord&, const BufferSlice&)> send_hook_;
};

}  // namespace wbam::sim

#endif  // WBAM_SIM_WORLD_HPP
