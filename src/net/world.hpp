// The TCP runtime: a poll(2) event-loop world whose NetContext
// implements the same Process/Context contract as the discrete-event
// simulator, but whose channels are real sockets. One NetWorld hosts one
// or more local processes (one per OS process in a deployed cluster — see
// examples/wbamd.cpp — or one per ProcessId when an in-process test wires
// several worlds over loopback) and speaks length-prefixed frames
// (net/frame.hpp) carrying the exact envelope bytes the simulator
// carries.
//
// One loop per world: start() spawns ONE thread running ONE poll loop
// for every local process. That thread owns every connection (socket,
// send queue, reassembler, channel cursors), every timer and every
// handler call, so the "single-threaded per process" contract holds
// without locks. Context calls (send, set_timer) are legal only there —
// in handlers, timers and run_on() thunks; a send from any other thread
// is a bug and aborts. Other threads reach the loop only through
// run_on(), drop_connections() and shutdown(), which post to its mailbox
// and ring its wakeup fd (net/shard.hpp).
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
// queues are flushed to the kernel (for at most 500 ms) — then joins the
// loop thread. The loop itself decides when it is drained: once its
// turns have found nothing to read, deliver or flush for a few
// milliseconds. Pending timers do not fire; messages sent while draining
// are flushed best-effort. Tests therefore never race teardown against
// in-flight deliveries.
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
    // Read by nothing: a world runs one loop. Its only writer is
    // perfbench/src/workloads.cpp; drop that line, then this field.
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

    // Spawns the loop thread; every process's on_start runs there, before
    // any delivery.
    void start();
    // Sleeps the caller for wall-clock `d` (the loops run meanwhile).
    void run_for(Duration d);
    // Runs fn(ctx) on the loop thread, in local process `id`'s context
    // (external injection: test drivers, example workloads).
    void run_on(ProcessId id, std::function<void(Context&)> fn);
    // Drains (see the contract above), then joins the loop thread.
    void shutdown();

    // Nanoseconds since the configured epoch; same base as every
    // NetContext::now() of this world.
    TimePoint now() const;

    // Test hook: closes every live connection (on the loop thread). The
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
    // Boot nonce carried in every HELLO: non-deterministic on purpose (the
    // seed repeats across restarts of the same pid, and peers use an
    // incarnation CHANGE to reset their receive cursors — see frame.hpp).
    std::uint64_t incarnation_ = 0;
    Rng seed_rng_;
    std::chrono::steady_clock::time_point epoch_;
    ClusterMap cluster_;

    std::vector<std::unique_ptr<Host>> hosts_;  // local processes only
    std::map<ProcessId, Host*> by_pid_;
    std::unique_ptr<Loop> loop_;

    // Set by shutdown(): the loop drains, then returns.
    std::atomic<bool> draining_{false};
    bool started_ = false;
};

}  // namespace wbam::net

#endif  // WBAM_NET_WORLD_HPP
