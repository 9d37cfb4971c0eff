// The TCP runtime: a sharded poll(2) event-loop world whose NetContext
// implements the same Process/Context contract as the discrete-event
// simulator, but whose channels are real sockets. One NetWorld hosts one
// or more local processes (one per OS process in a deployed cluster — see
// examples/wbamd.cpp — or one per ProcessId when an in-process test wires
// several worlds over loopback) and speaks length-prefixed frames
// (net/frame.hpp) carrying the exact envelope bytes the simulator
// carries.
//
// Sharding (NetConfig::shards, default = hardware concurrency): the
// world runs N event-loop worker threads. Ownership replaces locking —
// every connection's state (socket, send queue, reassembler, channel
// cursors) is owned by exactly one loop thread, chosen by the
// deterministic pair affinity shard_for(a, b, N) (net/shard.hpp), which
// is symmetric so a channel and its reverse (data one way, acks back)
// always share a loop. Each local process is homed on one loop
// (round-robin): its handlers, timers and run_on() thunks all execute
// there, preserving the "single-threaded per process" contract. Work
// crossing shards — a send whose connection another loop owns, a
// delivery for a process homed elsewhere, an accepted socket whose
// HELLO names a pair with different affinity — travels through MPSC
// command mailboxes woken by eventfd/self-pipe; sockets are handed off
// whole to the owning loop.
//
// Zero-copy at the socket boundary: Context::send queues the RETAINED
// BufferSlice behind an inline stack-built header and the coalescing
// flush path (net/send_queue.hpp) hands many queued frames to ONE
// writev(2) per batch — payload bytes are never copied into a transport
// buffer and the batched path allocates nothing per message. Inbound, a
// readiness event is one FIONREAD plus one read
// (FrameReassembler::read_from) into an image of exactly the bytes queued
// (at most 64 KiB; level-triggered poll reports any remainder next turn),
// so a retained slice pins at most one read's bytes; the image is frozen
// and its complete frames delivered as aliasing subslices in one
// multi-frame handler pass.
//
// Connection lifecycle: every local process listens on its endpoint from
// the ClusterMap; a send to a remote ProcessId lazily dials one outbound
// connection per directed (local, remote) pair, whose first frame is a
// HELLO identifying both ends (the peer handshake is keyed by ProcessId,
// never by address). Failed dials and broken connections re-dial with
// exponential backoff. DATA frames carry a per-channel sequence number
// and are retained until the peer acks them: a reconnect retransmits
// everything unacked, in order, and the receiver's channel cursor drops
// duplicates — so a connection drop DELAYS frames instead of losing
// them, preserving the reliable-FIFO channel contract of Context::send
// that the simulator provides (and that e.g. wbcast's fire-once
// DELIVER plane depends on). Cumulative ACKs never trigger their own
// write: they piggyback on the next coalesced flush of the reverse
// connection, or ride a short delayed-ack timer (500 µs) when no data is
// flowing.
//
// Graceful-shutdown contract: shutdown() first DRAINS — frames already
// received and local sends already queued are delivered, and outbound
// queues are flushed to the kernel (for at most 500 ms) — then joins
// every loop thread. Quiescence is detected across shards: a
// coordinator watches per-loop idle flags plus a global activity counter
// until nothing moved for two consecutive checks. Pending timers do not
// fire; messages sent while draining are flushed best-effort. Tests
// therefore never race teardown against in-flight deliveries.
#ifndef WBAM_NET_WORLD_HPP
#define WBAM_NET_WORLD_HPP

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/process.hpp"
#include "common/topology.hpp"
#include "net/address.hpp"
#include "net/frame.hpp"

namespace wbam::net {

struct NetConfig {
    // Address this world's listeners bind (dial targets come from the
    // ClusterMap).
    std::string bind_host = "127.0.0.1";
    // Clock epoch of Context::now(). Worlds that cooperate in one process
    // (e.g. a loopback test cluster) share one epoch so latencies measured
    // across worlds are coherent; the default (time_point{}) means "this
    // world's construction time".
    std::chrono::steady_clock::time_point epoch{};
    // Event-loop shard count: 0 = auto (hardware concurrency, clamped to
    // [1, 8]); explicit values honored up to 64. See net/shard.hpp.
    int shards = 0;
};

class NetWorld {
public:
    explicit NetWorld(Topology topo, std::uint64_t seed = 1,
                      NetConfig cfg = {});
    ~NetWorld();

    NetWorld(const NetWorld&) = delete;
    NetWorld& operator=(const NetWorld&) = delete;

    // Registers a local process and binds+listens on `listen_port`
    // (0 = ephemeral; read the outcome back with port_of). Call before
    // start().
    void add_process(ProcessId id, std::unique_ptr<Process> p,
                     std::uint16_t listen_port = 0);
    std::uint16_t port_of(ProcessId id) const;
    bool is_local(ProcessId id) const;

    // Endpoints of every process in the topology; required before start()
    // whenever any remote process will be addressed.
    void set_cluster(ClusterMap map);

    // Spawns the loop threads; on_start runs on each process's home loop,
    // before any delivery.
    void start();
    // Sleeps the caller for wall-clock `d` (the loops run meanwhile).
    void run_for(Duration d);
    // Runs fn(ctx) on the home loop of local process `id`, in its context
    // (external injection: test drivers, example workloads).
    void run_on(ProcessId id, std::function<void(Context&)> fn);
    // Drains (see the contract above), then joins every loop thread.
    void shutdown();

    // Nanoseconds since the configured epoch; same base as every
    // NetContext::now() of this world.
    TimePoint now() const;

    // Resolved event-loop count of this world.
    int shard_count() const { return nshards_; }

    // Test hook: closes every live connection (on the owning loops). The
    // next sends re-dial; exercises the reconnect path.
    void drop_connections();

private:
    struct Host;
    struct HostContext;
    struct Conn;
    struct Loop;

    Host* host_of(ProcessId id);
    void send_from(ProcessId from, ProcessId to, BufferSlice bytes);
    void deliver(Host& h, ProcessId from, const BufferSlice& frame);

    Topology topo_;
    NetConfig cfg_;
    int nshards_ = 1;
    // Boot nonce carried in every HELLO: non-deterministic on purpose (the
    // seed repeats across restarts of the same pid, and peers use an
    // incarnation CHANGE to reset their receive cursors — see frame.hpp).
    std::uint64_t incarnation_ = 0;
    Rng seed_rng_;
    std::chrono::steady_clock::time_point epoch_;
    ClusterMap cluster_;

    std::vector<std::unique_ptr<Host>> hosts_;  // local processes only
    std::map<ProcessId, Host*> by_pid_;
    std::vector<std::unique_ptr<Loop>> loops_;  // one per shard

    std::atomic<TimerId> next_timer_{1};
    // Lifecycle: draining_ starts the drain, stop_ ends the loops, and
    // activity_ + per-loop idle flags let shutdown() detect cross-shard
    // quiescence.
    std::atomic<bool> draining_{false};
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> activity_{0};
    bool started_ = false;
};

}  // namespace wbam::net

#endif  // WBAM_NET_WORLD_HPP
