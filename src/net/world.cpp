#include "net/world.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <queue>
#include <random>
#include <thread>
#include <unordered_set>

#include "codec/wire.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"
#include "net/send_queue.hpp"
#include "net/shard.hpp"
#include "net/stats.hpp"
#include "obs/metrics.hpp"

namespace wbam::net {

namespace {

// Redial backoff after a failed or dropped connection: doubles from the
// minimum, capped at the maximum, reset by the first successful write.
constexpr Duration dial_backoff_min = milliseconds(10);
constexpr Duration dial_backoff_max = seconds(1);
// Shutdown drain bound: how long to keep flushing outbound queues.
constexpr Duration drain_wait = milliseconds(500);
// Delayed-ack bound: a cumulative ack waits at most this long for a data
// frame to piggyback on before it is flushed on its own (still inside a
// coalesced writev, never a dedicated syscall).
constexpr Duration ack_delay = microseconds(500);

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// --- connection --------------------------------------------------------------

struct NetWorld::Conn {
    ProcessId local = invalid_process;   // our endpoint
    ProcessId remote = invalid_process;  // peer (known late for inbound)
    bool outbound = false;
    int fd = -1;
    bool connecting = false;  // nonblocking connect(2) in progress
    bool saw_hello = false;   // inbound: first frame pending
    bool handoff = false;     // inbound: the affinity owner is another loop
    // The dialling process's boot nonce from its HELLO (inbound only).
    std::uint64_t peer_incarnation = 0;
    // Receive side, bounded by default_max_frame (net/frame.hpp).
    FrameReassembler in;
    // Send side: the coalescing queue owns the channel sequence counter
    // and the unacked retransmit buffer (net/send_queue.hpp); each writev
    // carries at most FlushLimits' default 64 frames / 1 MiB.
    SendQueue q;
    // Piggybacked cumulative-ack state of the reverse channel
    // (remote -> local): what we owe the peer, and the deadline by which
    // the ack flushes even without data to ride on.
    bool ack_pending = false;
    std::uint64_t ack_upto = 0;
    TimePoint ack_due = 0;
    // Frames drained after the HELLO re-key but before the socket ships
    // to its owning loop; replayed through on_frame there.
    std::vector<BufferSlice> handoff_frames;
    // Redial state (outbound only).
    Duration backoff = 0;
    TimePoint retry_at = 0;

};

// --- per-shard event loop ----------------------------------------------------

struct NetWorld::Loop {
    struct TimerFlight {
        TimePoint due = 0;
        std::uint64_t seq = 0;
        ProcessId pid = invalid_process;
        TimerId id = invalid_timer;
        bool operator>(const TimerFlight& o) const {
            return due != o.due ? due > o.due : seq > o.seq;
        }
    };
    struct LocalMail {
        ProcessId from = invalid_process;
        ProcessId to = invalid_process;
        BufferSlice bytes;
    };
    // Cross-shard command envelope: anything another thread wants this
    // loop to do travels through the MPSC mailbox as one of these.
    struct Command {
        enum class Kind { send, deliver, post, handoff, drop };
        Kind kind = Kind::send;
        ProcessId from = invalid_process;  // send: source pid
        ProcessId pid = invalid_process;   // send: dest / post: target
        BufferSlice bytes;                 // send: payload
        std::vector<LocalMail> mail;       // deliver: batched deliveries
        std::function<void(Context&)> fn;  // post: injected thunk
        std::unique_ptr<Conn> conn;        // handoff: the socket, whole
    };

    // The loop the calling thread runs (nullptr off the loop threads):
    // same-loop submissions skip the mailbox.
    inline static thread_local Loop* current = nullptr;

    NetWorld* w = nullptr;
    int index = 0;
    std::vector<Host*> hosts;  // processes homed on this loop

    // Loop-owned state (touched only before start() or on this thread).
    std::vector<std::unique_ptr<Conn>> conns;
    std::map<std::pair<ProcessId, ProcessId>, Conn*> out_by_pair;
    // Receive cursor per (remote, local) channel: next expected DATA seq.
    // Outlives individual connections — that is what makes reconnect
    // retransmission dedup-able — and stays on this loop because the
    // affinity map is a pure function of the pair.
    std::map<std::pair<ProcessId, ProcessId>, std::uint64_t> recv_next;
    // Last HELLO incarnation seen per channel: a change means the peer
    // process restarted (its channel restarts at seq 1), so the cursor and
    // the reverse channel's cumulative-ack state must reset with it.
    std::map<std::pair<ProcessId, ProcessId>, std::uint64_t> recv_incarnation;
    std::priority_queue<TimerFlight, std::vector<TimerFlight>, std::greater<>>
        timers;
    std::uint64_t timer_seq = 0;
    std::deque<LocalMail> inbox;  // deliveries for hosts homed here
    std::vector<LocalMail> rx;    // frames received this poll turn
    bool read_progress = false;   // a socket produced bytes this turn

    // Cross-thread: command submission and the wakeup it rings.
    Mailbox<Command> mailbox;
    WakeFd wakefd;
    std::atomic<bool> idle{false};  // drain-quiescence flag
    std::thread thread;

    void post(Command cmd) {
        if (mailbox.push(std::move(cmd))) wakefd.wake();
    }

    void run();
    void execute(Command& cmd);
    void install(std::unique_ptr<Conn> conn);
    void note_incarnation(Conn& c);
    Conn* out_conn(ProcessId from, ProcessId to);
    void note_ack(ProcessId local, ProcessId remote, std::uint64_t upto);
    void flush_acks(bool draining);
    void dial(Conn& c);
    void conn_dead(Conn& c);
    void close_conn(Conn& c);
    void flush_conn(Conn& c);
    bool read_conn(Conn& c);  // false: connection died / malformed
    // One received frame; returns false when the stream is malformed.
    bool on_frame(Conn& c, const BufferSlice& payload);
    void accept_ready(Host& h);
    void route_rx();
    void fire_due_timers();
    TimePoint next_deadline() const;
};

// --- host & context ----------------------------------------------------------

struct NetWorld::Host {
    ProcessId id = invalid_process;
    std::unique_ptr<Process> proc;
    std::unique_ptr<HostContext> ctx;
    Rng rng{0};
    int listen_fd = -1;
    std::uint16_t port = 0;
    Loop* home = nullptr;  // handlers, timers and thunks run here
    std::unordered_set<TimerId> active_timers;
};

struct NetWorld::HostContext final : Context {
    NetWorld* world = nullptr;
    Host* host = nullptr;

    ProcessId self() const override { return host->id; }
    TimePoint now() const override { return world->now(); }
    void send(ProcessId to, BufferSlice bytes) override {
        world->send_from(host->id, to, std::move(bytes));
    }
    TimerId set_timer(Duration delay) override {
        const TimerId id =
            world->next_timer_.fetch_add(1, std::memory_order_relaxed);
        host->active_timers.insert(id);
        Loop* home = host->home;
        home->timers.push(Loop::TimerFlight{.due = world->now() + delay,
                                            .seq = home->timer_seq++,
                                            .pid = host->id, .id = id});
        return id;
    }
    void cancel_timer(TimerId id) override { host->active_timers.erase(id); }
    Rng& rng() override { return host->rng; }
};

// --- world lifecycle ---------------------------------------------------------

NetWorld::NetWorld(Topology topo, std::uint64_t seed, NetConfig cfg)
    : topo_(std::move(topo)), cfg_(std::move(cfg)),
      nshards_(resolve_shard_count(cfg_.shards)), seed_rng_(seed),
      epoch_(cfg_.epoch == std::chrono::steady_clock::time_point{}
                 ? std::chrono::steady_clock::now()
                 : cfg_.epoch) {
    std::random_device rd;
    incarnation_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd() ^
                   static_cast<std::uint64_t>(
                       std::chrono::system_clock::now()
                           .time_since_epoch()
                           .count());
    if (incarnation_ == 0) incarnation_ = 1;
    for (int i = 0; i < nshards_; ++i) {
        auto loop = std::make_unique<Loop>();
        loop->w = this;
        loop->index = i;
        loops_.push_back(std::move(loop));
    }
}

NetWorld::~NetWorld() {
    shutdown();
    for (const auto& l : loops_) {
        for (const auto& c : l->conns)
            if (c->fd >= 0) ::close(c->fd);
        // Handed-off sockets still in transit live in the mailbox.
        for (auto& cmd : l->mailbox.drain())
            if (cmd.conn != nullptr && cmd.conn->fd >= 0) ::close(cmd.conn->fd);
    }
    for (const auto& h : hosts_)
        if (h->listen_fd >= 0) ::close(h->listen_fd);
}

TimePoint NetWorld::now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void NetWorld::add_process(ProcessId id, std::unique_ptr<Process> p,
                           std::uint16_t listen_port) {
    WBAM_ASSERT(!started_);
    WBAM_ASSERT(id >= 0 && id < topo_.num_processes());
    WBAM_ASSERT_MSG(by_pid_.count(id) == 0, "process already registered");

    auto host = std::make_unique<Host>();
    host->id = id;
    host->proc = std::move(p);
    host->rng = seed_rng_.fork();
    host->ctx = std::make_unique<HostContext>();
    host->ctx->world = this;
    host->ctx->host = host.get();
    // Home loop: round-robin by registration order. The host's handlers
    // and its listener live there.
    host->home = loops_[hosts_.size() % loops_.size()].get();
    host->home->hosts.push_back(host.get());

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    WBAM_ASSERT_MSG(fd >= 0, "socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listen_port);
    if (::inet_pton(AF_INET, cfg_.bind_host.c_str(), &addr.sin_addr) != 1)
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int bound =
        ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    WBAM_ASSERT_MSG(bound == 0, "bind() failed (port in use?)");
    WBAM_ASSERT_MSG(::listen(fd, 64) == 0, "listen() failed");
    set_nonblocking(fd);
    sockaddr_in got{};
    socklen_t len = sizeof(got);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len);
    host->listen_fd = fd;
    host->port = ntohs(got.sin_port);

    by_pid_[id] = host.get();
    hosts_.push_back(std::move(host));
}

std::uint16_t NetWorld::port_of(ProcessId id) const {
    const auto it = by_pid_.find(id);
    WBAM_ASSERT_MSG(it != by_pid_.end(), "not a local process");
    return it->second->port;
}

bool NetWorld::is_local(ProcessId id) const { return by_pid_.count(id) > 0; }

void NetWorld::set_cluster(ClusterMap map) {
    WBAM_ASSERT(!started_);
    cluster_ = std::move(map);
}

NetWorld::Host* NetWorld::host_of(ProcessId id) {
    const auto it = by_pid_.find(id);
    return it == by_pid_.end() ? nullptr : it->second;
}

void NetWorld::start() {
    WBAM_ASSERT(!started_);
    for (const auto& h : hosts_)
        WBAM_ASSERT_MSG(h->proc != nullptr, "unregistered process");
    started_ = true;
    for (const auto& l : loops_) {
        Loop* raw = l.get();
        raw->thread = std::thread([raw] { raw->run(); });
    }
}

void NetWorld::run_for(Duration d) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

void NetWorld::run_on(ProcessId id, std::function<void(Context&)> fn) {
    Host* h = host_of(id);
    if (h == nullptr) return;
    Loop::Command cmd;
    cmd.kind = Loop::Command::Kind::post;
    cmd.pid = id;
    cmd.fn = std::move(fn);
    h->home->post(std::move(cmd));
}

void NetWorld::drop_connections() {
    for (const auto& l : loops_) {
        Loop::Command cmd;
        cmd.kind = Loop::Command::Kind::drop;
        l->post(std::move(cmd));
    }
}

// Cross-shard quiescence: every loop publishes an idle flag each drain
// turn and bumps the shared activity counter when it did work. Nothing
// is in flight once every loop is idle AND the counter held still for
// two consecutive checks — a loop that is about to receive cross-shard
// mail stops being idle before its producer's work goes unseen.
void NetWorld::shutdown() {
    if (!started_) return;
    draining_.store(true);
    for (const auto& l : loops_) l->wakefd.wake();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(drain_wait);
    std::uint64_t last_activity = ~std::uint64_t{0};
    int quiet = 0;
    while (quiet < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        bool all_idle = true;
        for (const auto& l : loops_) all_idle &= l->idle.load();
        const std::uint64_t activity = activity_.load();
        quiet = all_idle && activity == last_activity ? quiet + 1 : 0;
        last_activity = activity;
    }
    stop_.store(true);
    for (const auto& l : loops_) l->wakefd.wake();
    for (const auto& l : loops_)
        if (l->thread.joinable()) l->thread.join();
    started_ = false;
    draining_.store(false);
    stop_.store(false);
}

// --- sending -----------------------------------------------------------------

void NetWorld::send_from(ProcessId from, ProcessId to, BufferSlice bytes) {
    if (is_local(to)) {
        Loop* home = by_pid_.find(to)->second->home;
        if (Loop::current == home) {
            home->inbox.push_back(Loop::LocalMail{from, to, std::move(bytes)});
        } else {
            Loop::Command cmd;
            cmd.kind = Loop::Command::Kind::deliver;
            cmd.mail.push_back(Loop::LocalMail{from, to, std::move(bytes)});
            home->post(std::move(cmd));
        }
        return;
    }
    if (!cluster_.contains(to)) return;  // unaddressable: dropped
    Loop* owner =
        loops_[static_cast<std::size_t>(shard_for(from, to, nshards_))].get();
    if (Loop::current == owner) {
        owner->out_conn(from, to)->q.push_data(std::move(bytes));
        return;
    }
    Loop::Command cmd;
    cmd.kind = Loop::Command::Kind::send;
    cmd.from = from;
    cmd.pid = to;
    cmd.bytes = std::move(bytes);
    owner->post(std::move(cmd));
}

NetWorld::Conn* NetWorld::Loop::out_conn(ProcessId from, ProcessId to) {
    const auto key = std::make_pair(from, to);
    const auto it = out_by_pair.find(key);
    if (it != out_by_pair.end()) return it->second;
    auto conn = std::make_unique<Conn>();
    conn->local = from;
    conn->remote = to;
    conn->outbound = true;
    conn->backoff = dial_backoff_min;
    conn->retry_at = w->now();  // dial on the next loop turn
    Conn* raw = conn.get();
    conns.push_back(std::move(conn));
    out_by_pair[key] = raw;
    return raw;
}

void NetWorld::Loop::dial(Conn& c) {
    WBAM_ASSERT(c.outbound && c.fd < 0);
    const Endpoint& ep = w->cluster_.of(c.remote);
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const std::string port = std::to_string(ep.port);
    if (::getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &res) != 0 ||
        res == nullptr) {
        conn_dead(c);
        return;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        ::freeaddrinfo(res);
        conn_dead(c);
        return;
    }
    set_nonblocking(fd);
    set_nodelay(fd);
    const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
    ::freeaddrinfo(res);
    if (rc != 0 && errno != EINPROGRESS) {
        ::close(fd);
        conn_dead(c);
        return;
    }
    c.fd = fd;
    c.connecting = rc != 0;
    // A fresh connection always opens with the identity handshake (the
    // one control frame that carries a heap payload — once per dial).
    Buffer hello = encode_hello(c.local, c.remote, w->incarnation_);
    DataHeader hdr;
    put_frame_header(hdr.bytes.data(), static_cast<std::uint32_t>(hello.size()));
    hdr.len = frame_header_size;
    c.q.push_control_front(hdr, BufferSlice(std::move(hello)));
}

// A connection died (or a dial failed): outbound channels re-dial with
// exponential backoff and retransmit everything unacked ahead of the
// still-queued frames — the channel delays, it does not lose. Inbound
// connections are discarded (the peer owns the re-dial). Control frames
// queued for the dead connection are dropped: dial() opens the next one
// with a fresh HELLO, and acks are regenerated by the next delivery (or
// the still-pending ack state of the reverse channel).
void NetWorld::Loop::conn_dead(Conn& c) {
    if (c.fd >= 0) {
        ::close(c.fd);
        c.fd = -1;
    }
    c.connecting = false;
    if (!c.outbound) return;  // reaped by the loop
    // Post-mortem trail: only channels that had completed the handshake —
    // the initial dial storm against peers still booting is expected and
    // would drown the ring.
    if (c.saw_hello) {
        c.saw_hello = false;
        obs::events().note("reconnect",
                           "channel p" + std::to_string(c.local) + "->p" +
                               std::to_string(c.remote) +
                               " died; redialling with backoff",
                           w->now());
    }
    c.q.requeue_unacked();
    c.backoff = std::min(std::max(c.backoff * 2, dial_backoff_min),
                         dial_backoff_max);
    c.retry_at = w->now() + c.backoff;
}

void NetWorld::Loop::close_conn(Conn& c) {
    if (c.fd >= 0) {
        ::close(c.fd);
        c.fd = -1;
    }
    c.connecting = false;
}

void NetWorld::Loop::flush_conn(Conn& c) {
    if (c.fd < 0 || c.connecting) return;
    bool progressed = false;
    const SendQueue::FlushStatus st = c.q.flush(c.fd, &progressed);
    // First successful write on a dialled connection: reset the backoff.
    if (progressed && c.outbound) c.backoff = dial_backoff_min;
    if (st == SendQueue::FlushStatus::error) conn_dead(c);
}

// --- receiving ---------------------------------------------------------------

// Records what the reverse connection owes the peer; flush_acks decides
// when it actually leaves (piggybacked, delayed, or drain-forced).
void NetWorld::Loop::note_ack(ProcessId local, ProcessId remote,
                              std::uint64_t upto) {
    if (!w->cluster_.contains(remote)) return;
    Conn* back = out_conn(local, remote);
    if (!back->ack_pending) {
        back->ack_pending = true;
        back->ack_due = w->now() + ack_delay;
    }
    back->ack_upto = std::max(back->ack_upto, upto);
}

// Ack emission rule: a pending cumulative ack joins the next coalesced
// flush as an inline frame (zero allocations) as soon as the connection
// has data to ride with, or once ack_delay expired, or unconditionally
// while draining. It never triggers a write of its own — the flush pass
// issues the writev either way.
void NetWorld::Loop::flush_acks(bool draining) {
    const TimePoint current = w->now();
    for (const auto& c : conns) {
        if (!c->ack_pending) continue;
        if (!c->q.empty() || current >= c->ack_due || draining) {
            c->q.push_control(make_ack_header(c->ack_upto));
            transport_stats::note_ack();
            c->ack_pending = false;
        }
    }
}

void NetWorld::Loop::accept_ready(Host& h) {
    for (;;) {
        const int fd = ::accept(h.listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // EAGAIN or transient error
        }
        set_nonblocking(fd);
        set_nodelay(fd);
        auto conn = std::make_unique<Conn>();
        conn->local = h.id;
        conn->outbound = false;
        conn->fd = fd;
        conns.push_back(std::move(conn));
    }
}

// An inbound socket whose HELLO named a pair owned by another loop lands
// here: installed whole, superseding any older connection of the same
// pair, with the frames drained alongside the HELLO replayed in order.
void NetWorld::Loop::install(std::unique_ptr<Conn> conn) {
    conn->handoff = false;
    for (const auto& other : conns) {
        if (other->outbound) continue;
        if (other->fd >= 0 && other->saw_hello &&
            other->remote == conn->remote && other->local == conn->local)
            close_conn(*other);
    }
    std::vector<BufferSlice> replay;
    replay.swap(conn->handoff_frames);
    Conn* raw = conn.get();
    conns.push_back(std::move(conn));
    // The HELLO was consumed on the accepting loop; apply its incarnation
    // here, where the channel's cursor lives.
    note_incarnation(*raw);
    for (const BufferSlice& payload : replay) {
        if (raw->fd < 0) break;
        if (!on_frame(*raw, payload)) {
            log::info("net: dropping malformed connection (local p",
                      raw->local, ")");
            close_conn(*raw);
            break;
        }
    }
}

// A peer's HELLO announced its boot incarnation for this channel. A
// restarted process begins its data channel at seq 1 again, and the
// frames the OLD incarnation had acked are pruned on its side forever —
// so keeping the old cursor would drop everything the new incarnation
// sends as retransmit duplicates, muting it permanently. Reset the
// cursor, and with it the reverse channel's cumulative-ack high-water
// mark (an old `ack_upto` would over-ack the new incarnation's stream
// and could prune frames it still needs to retransmit).
void NetWorld::Loop::note_incarnation(Conn& c) {
    if (c.peer_incarnation == 0) return;  // pre-incarnation peer (tests)
    const auto channel = std::make_pair(c.remote, c.local);
    auto [it, fresh] =
        recv_incarnation.try_emplace(channel, c.peer_incarnation);
    if (fresh || it->second == c.peer_incarnation) return;
    it->second = c.peer_incarnation;
    log::info("net: peer p", c.remote, " restarted — resetting channel p",
              c.remote, "->p", c.local);
    obs::events().note("incarnation",
                       "peer p" + std::to_string(c.remote) +
                           " restarted; reset channel p" +
                           std::to_string(c.remote) + "->p" +
                           std::to_string(c.local),
                       w->now());
    recv_next.erase(channel);
    const auto rev = out_by_pair.find(std::make_pair(c.local, c.remote));
    if (rev != out_by_pair.end()) {
        rev->second->ack_pending = false;
        rev->second->ack_upto = 0;
    }
}

// One complete frame off the wire. Returns false on protocol violations
// (the caller drops the connection).
bool NetWorld::Loop::on_frame(Conn& c, const BufferSlice& payload) {
    if (payload.empty()) return false;
    const auto type = static_cast<FrameType>(payload[0]);
    const BufferSlice body = payload.subslice(1, payload.size() - 1);
    if (!c.saw_hello) {
        // The handshake must come first — on inbound connections it tells
        // us who dialled; on outbound connections the peer sends nothing
        // before we identified ourselves, so anything arriving here is
        // ack/data already keyed by the pair we dialled.
        if (c.outbound) {
            c.saw_hello = true;
        } else {
            if (type != FrameType::hello) return false;
            const auto hello = decode_hello(body);
            if (!hello || !w->is_local(hello->to) || hello->from < 0 ||
                hello->from >= w->topo_.num_processes())
                return false;
            // Re-key the connection by the announced identity; a replaced
            // connection from the same peer supersedes the old one (the
            // peer re-dialled).
            c.local = hello->to;
            c.remote = hello->from;
            c.saw_hello = true;
            c.peer_incarnation = hello->incarnation;
            // The socket was accepted on the listener's home loop, but
            // the pair's affinity may name another: flag it for handoff —
            // the fd pass ships it whole, frames drained after this one
            // included. The channel state never splits across loops.
            if (shard_for(c.local, c.remote, w->nshards_) != index) {
                c.handoff = true;
                return true;
            }
            for (const auto& other : conns) {
                if (other.get() == &c || other->outbound) continue;
                if (other->fd >= 0 && other->saw_hello &&
                    other->remote == c.remote && other->local == c.local)
                    close_conn(*other);
            }
            note_incarnation(c);
            return true;
        }
    }
    try {
        switch (type) {
            case FrameType::hello:
                return false;  // duplicate handshake
            case FrameType::data: {
                codec::Reader r(body);
                const std::uint64_t seq = r.varint();
                const BufferSlice envelope = r.take_slice(r.remaining());
                const auto channel = std::make_pair(c.remote, c.local);
                auto [it, fresh] = recv_next.try_emplace(channel, 1);
                if (seq < it->second) {
                    // Retransmit duplicate: re-ack so the sender can prune
                    // its retransmit buffer even if the original ack died
                    // with a connection.
                    note_ack(c.local, c.remote, it->second - 1);
                    return true;
                }
                if (seq > it->second)
                    log::warn("net: sequence gap on channel p", c.remote,
                              "->p", c.local, " (", it->second, " -> ", seq,
                              ")");
                it->second = seq + 1;
                note_ack(c.local, c.remote, seq);
                if (w->is_local(c.local))
                    rx.push_back(LocalMail{c.remote, c.local, envelope});
                (void)fresh;
                return true;
            }
            case FrameType::ack: {
                codec::Reader r(body);
                const std::uint64_t upto = r.varint();
                r.expect_done();
                // Acks refer to OUR data channel towards the peer — owned
                // by this loop too (the affinity map is symmetric).
                const auto it =
                    out_by_pair.find(std::make_pair(c.local, c.remote));
                if (it == out_by_pair.end()) return true;
                it->second->q.on_ack(upto);
                return true;
            }
        }
    } catch (const codec::DecodeError&) {
    }
    return false;
}

// One readiness event = one right-sized read (FrameReassembler::read_from);
// a remainder is reported again by the next level-triggered poll.
bool NetWorld::Loop::read_conn(Conn& c) {
    const ReadResult r = c.in.read_from(c.fd);
    if (r.bytes > 0) {
        transport_stats::note_read();
        read_progress = true;  // progress marker for the shutdown drain
        bool malformed = false;
        std::uint64_t frames = 0;
        const bool ok = c.in.drain([&](const BufferSlice& payload) {
            if (malformed) return;
            ++frames;
            if (c.handoff) {
                // Already re-keyed to another loop's pair: everything after
                // the HELLO rides along with the socket.
                c.handoff_frames.push_back(payload);
                return;
            }
            if (!on_frame(c, payload)) malformed = true;
        });
        transport_stats::note_frames_received(frames);
        if (!ok || malformed) {
            log::info("net: dropping malformed connection (local p", c.local,
                      ")");
            c.outbound ? conn_dead(c) : close_conn(c);
            return false;
        }
    }
    if (r.status == ReadResult::Status::again) return true;
    c.outbound ? conn_dead(c) : close_conn(c);  // peer closed, or error
    return false;
}

void NetWorld::deliver(Host& h, ProcessId from, const BufferSlice& frame) {
    try {
        h.proc->on_message(*h.ctx, from, frame);
    } catch (const codec::DecodeError&) {
        // Malformed input is dropped (see sim::World).
    }
}

// Everything read this poll turn lands in one batched handler pass:
// frames for processes homed on this loop deliver immediately, frames
// for the others ship as ONE deliver command (one wakeup) per target
// loop.
void NetWorld::Loop::route_rx() {
    if (rx.empty()) return;
    std::vector<std::vector<LocalMail>> cross;
    for (LocalMail& m : rx) {
        Host* h = w->host_of(m.to);
        if (h == nullptr) continue;
        if (h->home == this) {
            w->deliver(*h, m.from, m.bytes);
            continue;
        }
        if (cross.empty()) cross.resize(w->loops_.size());
        cross[static_cast<std::size_t>(h->home->index)].push_back(
            std::move(m));
    }
    rx.clear();
    for (std::size_t i = 0; i < cross.size(); ++i) {
        if (cross[i].empty()) continue;
        Command cmd;
        cmd.kind = Command::Kind::deliver;
        cmd.mail = std::move(cross[i]);
        w->loops_[i]->post(std::move(cmd));
    }
}

// --- the loop ----------------------------------------------------------------

void NetWorld::Loop::execute(Command& cmd) {
    switch (cmd.kind) {
        case Command::Kind::send:
            if (!w->cluster_.contains(cmd.pid)) return;
            out_conn(cmd.from, cmd.pid)->q.push_data(std::move(cmd.bytes));
            return;
        case Command::Kind::deliver:
            for (LocalMail& m : cmd.mail) inbox.push_back(std::move(m));
            return;
        case Command::Kind::post:
            if (Host* h = w->host_of(cmd.pid);
                h != nullptr && h->home == this)
                cmd.fn(*h->ctx);
            return;
        case Command::Kind::handoff:
            install(std::move(cmd.conn));
            return;
        case Command::Kind::drop:
            for (const auto& c : conns)
                if (c->fd >= 0) c->outbound ? conn_dead(*c) : close_conn(*c);
            return;
    }
}

void NetWorld::Loop::fire_due_timers() {
    const TimePoint current = w->now();
    while (!timers.empty() && timers.top().due <= current) {
        const TimerFlight f = timers.top();
        timers.pop();
        Host* h = w->host_of(f.pid);
        if (h == nullptr || h->active_timers.erase(f.id) == 0) continue;
        h->proc->on_timer(*h->ctx, f.id);
    }
}

TimePoint NetWorld::Loop::next_deadline() const {
    TimePoint next = time_never;
    if (!timers.empty()) next = timers.top().due;
    for (const auto& c : conns) {
        if (c->outbound && c->fd < 0 && !c->q.empty())
            next = std::min(next, c->retry_at);
        if (c->ack_pending) next = std::min(next, c->ack_due);
    }
    return next;
}

void NetWorld::Loop::run() {
    current = this;
    for (Host* h : hosts) h->proc->on_start(*h->ctx);

    std::vector<pollfd> pfds;
    std::vector<Conn*> pfd_conn;  // parallel to pfds; nullptr = not a conn
    std::vector<Command> cmds;    // reused: swapped with the mailbox

    for (;;) {
        bool busy = false;

        mailbox.drain(cmds);
        busy |= !cmds.empty();
        for (Command& cmd : cmds) execute(cmd);
        cmds.clear();  // release payloads and thunks before sleeping

        if (!inbox.empty()) {
            busy = true;
            // Deliveries may enqueue further local sends; process the
            // current batch only (new mail waits for the next turn —
            // async, never re-entrant).
            std::deque<LocalMail> batch;
            batch.swap(inbox);
            for (LocalMail& m : batch)
                if (Host* h = w->host_of(m.to))
                    w->deliver(*h, m.from, m.bytes);
        }

        const bool draining = w->draining_.load();
        if (!draining) fire_due_timers();
        flush_acks(draining);

        // (Re-)dial outbound connections whose backoff expired.
        const TimePoint current_time = w->now();
        for (const auto& c : conns)
            if (c->outbound && c->fd < 0 && !c->q.empty() &&
                c->retry_at <= current_time)
                dial(*c);

        // Flush before sleeping: most sends complete without a poll round
        // (and pending acks coalesce into the same writev).
        bool out_pending = false;
        for (const auto& c : conns) {
            if (c->fd >= 0 && !c->connecting && !c->q.empty()) flush_conn(*c);
            out_pending |= !c->q.empty();
        }
        busy |= out_pending;
        busy |= read_progress;
        read_progress = false;

        if (w->stop_.load()) return;
        if (draining) {
            if (busy) w->activity_.fetch_add(1, std::memory_order_relaxed);
            idle.store(!busy);
        }

        pfds.clear();
        pfd_conn.clear();
        pfds.push_back(pollfd{wakefd.poll_fd(), POLLIN, 0});
        pfd_conn.push_back(nullptr);
        const std::size_t listeners_at = pfds.size();
        if (!draining) {
            // No NEW connections while draining; established ones still
            // read (in-flight frames must land) and flush.
            for (const Host* h : hosts) {
                pfds.push_back(pollfd{h->listen_fd, POLLIN, 0});
                pfd_conn.push_back(nullptr);
            }
        }
        for (const auto& c : conns) {
            if (c->fd < 0) continue;
            short events = POLLIN;
            if (c->connecting || !c->q.empty()) events |= POLLOUT;
            pfds.push_back(pollfd{c->fd, events, 0});
            pfd_conn.push_back(c.get());
        }

        int timeout_ms = 100;
        const TimePoint next = next_deadline();
        if (!inbox.empty() || !mailbox.empty()) {
            timeout_ms = 0;
        } else if (next != time_never) {
            const TimePoint at = w->now();
            timeout_ms = next <= at
                             ? 0
                             : static_cast<int>(std::min<TimePoint>(
                                   (next - at) / 1'000'000 + 1, 100));
        }
        if (draining) timeout_ms = std::min(timeout_ms, 5);

        const int ready = ::poll(pfds.data(),
                                 static_cast<nfds_t>(pfds.size()), timeout_ms);
        if (ready < 0 && errno != EINTR) return;  // unrecoverable

        if (ready > 0) {
            if (pfds[0].revents & POLLIN) wakefd.clear();
            if (!draining) {
                for (std::size_t i = 0; i < hosts.size(); ++i)
                    if (pfds[listeners_at + i].revents & POLLIN)
                        accept_ready(*hosts[i]);
            }
            for (std::size_t i = 0; i < pfds.size(); ++i) {
                Conn* c = pfd_conn[i];
                if (c == nullptr || c->fd < 0 || pfds[i].revents == 0)
                    continue;
                if (c->connecting) {
                    if (pfds[i].revents & (POLLOUT | POLLERR | POLLHUP)) {
                        int err = 0;
                        socklen_t len = sizeof(err);
                        ::getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &err, &len);
                        if (err != 0) {
                            conn_dead(*c);
                            continue;
                        }
                        c->connecting = false;
                        flush_conn(*c);
                    }
                    continue;
                }
                if (pfds[i].revents & POLLIN) {
                    if (!read_conn(*c)) continue;
                    if (c->handoff) continue;  // shipped after the pass
                } else if (pfds[i].revents & (POLLERR | POLLHUP)) {
                    // No readable data: the connection is gone.
                    c->outbound ? conn_dead(*c) : close_conn(*c);
                    continue;
                }
                if (pfds[i].revents & POLLOUT) flush_conn(*c);
            }
        }

        // One batched handler pass over everything read this turn.
        route_rx();

        // Ship handed-off sockets to their affinity owners, then reap
        // dead inbound connections (outbound ones persist: they own the
        // redial schedule and the queued frames).
        for (auto& slot : conns) {
            if (slot == nullptr || !slot->handoff) continue;
            if (slot->fd < 0) {
                slot->handoff = false;
                continue;
            }
            Loop* owner = w->loops_[static_cast<std::size_t>(shard_for(
                                        slot->local, slot->remote,
                                        w->nshards_))]
                              .get();
            Command cmd;
            cmd.kind = Command::Kind::handoff;
            cmd.conn = std::move(slot);
            owner->post(std::move(cmd));
        }
        conns.erase(std::remove_if(conns.begin(), conns.end(),
                                   [](const std::unique_ptr<Conn>& c) {
                                       return c == nullptr ||
                                              (!c->outbound && c->fd < 0);
                                   }),
                    conns.end());
    }
}

}  // namespace wbam::net
