#include "probe.hpp"

#include "codec/wire.hpp"
#include "ctrl/messages.hpp"

namespace perfbench {

namespace {

struct Header {  // parsed envelope header
    std::uint8_t module = 0xff;
    std::uint8_t type = 0;
    std::uint64_t about = 0;
};

Header parse_header(const BufferSlice& bytes) {
    Header h;
    if (bytes.size() < 2) return h;
    try {
        const wbam::codec::EnvelopeView env(bytes);
        h.module = static_cast<std::uint8_t>(env.module);
        h.type = env.type;
        h.about = env.about;
    } catch (const wbam::codec::DecodeError&) {
        h.module = bytes.data()[0];
        h.type = bytes.data()[1];
    }
    return h;
}

bool is_ctrl(const BufferSlice& bytes, wbam::ctrl::CtrlMsgType type) {
    return bytes.size() >= 2 &&
           bytes.data()[0] ==
               static_cast<std::uint8_t>(wbam::codec::Module::ctrl) &&
           bytes.data()[1] == static_cast<std::uint8_t>(type);
}

constexpr auto module_client =
    static_cast<std::uint8_t>(wbam::codec::Module::client);

}  // namespace

TracedProcess::TracedProcess(std::unique_ptr<wbam::Process> inner,
                             ProcessId pid, RunProbe& probe)
    : inner_(std::move(inner)), pid_(pid), probe_(probe),
      st_(*probe.procs[static_cast<std::size_t>(pid)]),
      role_(role_of(probe.topo, pid)), ctx_(*this) {}

void TracedProcess::on_start(Context& ctx) {
    handle(ctx, SpanKind::start, wbam::invalid_process, nullptr,
           [this](Context& c) { inner_->on_start(c); });
}

void TracedProcess::on_message(Context& ctx, ProcessId from,
                               const BufferSlice& bytes) {
    handle(ctx, SpanKind::message, from, &bytes,
           [&](Context& c) { inner_->on_message(c, from, bytes); });
}

void TracedProcess::on_timer(Context& ctx, TimerId id) {
    handle(ctx, SpanKind::timer, wbam::invalid_process, nullptr,
           [&](Context& c) { inner_->on_timer(c, id); });
}

Layer TracedProcess::layer_of(SpanKind kind, std::uint8_t module) const {
    using wbam::codec::Module;
    if (role_ == Role::coordinator) return layer_ctrl;
    if (module == static_cast<std::uint8_t>(Module::ctrl) ||
        kind == SpanKind::start)
        return layer_ctrl;
    if (role_ == Role::driver) return layer_client;
    if (kind == SpanKind::timer) return layer_timer;
    if (module == static_cast<std::uint8_t>(Module::paxos)) return layer_paxos;
    if (module == static_cast<std::uint8_t>(Module::elect)) return layer_elect;
    return layer_proto;
}

template <typename Fn>
void TracedProcess::handle(Context& ctx, SpanKind kind, ProcessId from,
                           const BufferSlice* bytes, Fn&& fn) {
    const bool watch = role_ == Role::coordinator;
    if (watch && bytes != nullptr) watch_receive(*bytes);
    if (!probe_.tracing) {
        if (watch) {
            ctx_.bind(ctx);
            fn(ctx_);
        } else {
            fn(ctx);
        }
        return;
    }
    ctx_.bind(ctx);
    if (!st_.have_clock.load(std::memory_order_relaxed)) {
        clockid_t cid{};
        if (pthread_getcpuclockid(pthread_self(), &cid) == 0) {
            st_.cpu_clock.store(cid);
            st_.have_clock.store(true);
        }
    }
    const Header h = bytes != nullptr ? parse_header(*bytes) : Header{};
    std::uint32_t seq = 0;
    if (kind == SpanKind::message && from >= 0 &&
        static_cast<std::size_t>(from) < st_.recv_on.size())
        seq = st_.recv_on[static_cast<std::size_t>(from)]++;

    Frame f;
    f.kind = kind;
    if (probe_.recording.load(std::memory_order_relaxed) && room_for_span()) {
        f.span = static_cast<std::int64_t>(st_.spans.size());
        Span s;
        s.pid = pid_;
        s.peer = from;
        s.kind = kind;
        s.module = h.module;
        s.type = h.type;
        s.about = h.about;
        s.at = ctx.now();
        s.channel_seq = seq;
        st_.spans.push_back(s);
    }
    const std::int64_t t0 = host_ns();
    const std::int64_t c0 = thread_cpu_ns();
    Frame* const outer = cur_;
    cur_ = &f;
    fn(ctx_);
    cur_ = outer;
    const std::int64_t c1 = thread_cpu_ns();
    const std::int64_t t1 = host_ns();

    // Sends are pure CPU work (they only queue), so their wall time is
    // their CPU time; subtracting it leaves the handler's own share.
    const Layer layer = layer_of(kind, h.module);
    ProcStats::add(st_.cpu[layer], (c1 - c0) - f.child_wall);
    ProcStats::add(st_.wall[layer], (t1 - t0) - f.child_wall);
    if (f.span >= 0) {
        Span& s = st_.spans[static_cast<std::size_t>(f.span)];
        s.t0 = t0;
        s.t1 = t1;
        s.cpu = c1 - c0;
    }
}

bool TracedProcess::room_for_span() {
    if (st_.spans.size() < probe_.span_cap_per_proc) return true;
    // The first full log ends recording everywhere, so the recorded slice
    // is one time interval and its sends and receives pair up.
    probe_.recording.store(false, std::memory_order_relaxed);
    return false;
}

void TracedProcess::watch_receive(const BufferSlice& bytes) {
    // The coordinator merges these same raw samples into its histogram;
    // keeping them here gives exact (unbucketed) percentiles.
    if (!is_ctrl(bytes, wbam::ctrl::CtrlMsgType::sample)) return;
    try {
        const wbam::codec::EnvelopeView env(bytes);
        wbam::codec::Reader body = env.body;
        const auto msg = wbam::ctrl::SampleMsg::decode(body);
        const std::lock_guard<std::mutex> guard(probe_.samples_mutex);
        probe_.samples.insert(probe_.samples.end(), msg.latencies_ns.begin(),
                              msg.latencies_ns.end());
    } catch (const wbam::codec::DecodeError&) {
    }
}

void TracedProcess::watch_send(const BufferSlice& bytes) {
    if (probe_.window_open.load() != 0 ||
        !is_ctrl(bytes, wbam::ctrl::CtrlMsgType::start))
        return;
    try {
        const wbam::codec::EnvelopeView env(bytes);
        wbam::codec::Reader body = env.body;
        const auto start = wbam::ctrl::StartMsg::decode(body);
        probe_.start_sent_host_ns.store(host_ns());
        probe_.window_close.store(start.window_close);
        probe_.window_open.store(start.window_open);
    } catch (const wbam::codec::DecodeError&) {
    }
}

template <typename Send>
void TracedProcess::timed_send(const ProcessId* to, std::size_t n,
                               const BufferSlice& bytes, Send&& send) {
    const Header h = parse_header(bytes);
    const auto size = static_cast<std::int64_t>(bytes.size());
    // A batch frame (protocols batch their sends when they keep a WAL)
    // carries several envelopes; the receiver handles each one apart.
    std::array<std::int64_t, 8> modules{};
    std::uint32_t envelopes = 0;
    if (wbam::codec::is_batch_frame(bytes)) {
        try {
            wbam::codec::for_each_batched(bytes, [&](const BufferSlice& sub) {
                ++envelopes;
                if (!sub.empty()) ++modules[sub.data()[0] & 7u];
            });
        } catch (const wbam::codec::DecodeError&) {
            envelopes = 0;
        }
    }
    if (envelopes == 0) {
        envelopes = 1;
        modules = {};
        ++modules[h.module & 7u];
    }
    const TimePoint at = ctx_.now();
    const std::int64_t t0 = host_ns();
    send();
    const std::int64_t t1 = host_ns();

    const auto count = static_cast<std::int64_t>(n);
    ProcStats::add(st_.send_wall, t1 - t0);
    ProcStats::add(st_.send_bytes, size * count);
    for (std::size_t m = 0; m < modules.size(); ++m)
        if (modules[m] != 0)
            ProcStats::add(st_.sends_by_module[m], modules[m] * count);
    if (cur_ != nullptr) {
        cur_->child_wall += t1 - t0;
        if (role_ == Role::driver && cur_->kind == SpanKind::timer &&
            h.module == module_client && h.about != st_.last_resend_about) {
            st_.last_resend_about = h.about;
            ProcStats::add(st_.resends, 1);
        }
    }
    const bool record = probe_.recording.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
        const ProcessId p = to[i];
        std::uint32_t seq = 0;
        if (p >= 0 && static_cast<std::size_t>(p) < st_.sent_on.size()) {
            seq = st_.sent_on[static_cast<std::size_t>(p)];
            st_.sent_on[static_cast<std::size_t>(p)] += envelopes;
        }
        if (!record || !room_for_span()) continue;
        Span s;
        s.pid = pid_;
        s.peer = p;
        s.kind = SpanKind::send;
        s.module = h.module;
        s.type = h.type;
        s.about = h.about;
        s.at = at;
        s.t0 = t0;
        s.t1 = t1;
        s.cpu = t1 - t0;
        s.parent = cur_ != nullptr ? static_cast<std::int32_t>(cur_->span) : -1;
        s.channel_seq = seq;
        s.envelopes = envelopes;
        st_.spans.push_back(s);
    }
}

void TracedProcess::Ctx::send(ProcessId to, BufferSlice bytes) {
    TracedProcess& o = owner_;
    if (o.role_ == Role::coordinator) o.watch_send(bytes);
    if (!o.probe_.tracing) {
        in_->send(to, std::move(bytes));
        return;
    }
    o.timed_send(&to, 1, bytes, [&] { in_->send(to, std::move(bytes)); });
}

void TracedProcess::Ctx::send_many(const std::vector<ProcessId>& to,
                                   BufferSlice bytes) {
    TracedProcess& o = owner_;
    if (o.role_ == Role::coordinator) o.watch_send(bytes);
    if (!o.probe_.tracing) {
        in_->send_many(to, std::move(bytes));
        return;
    }
    o.timed_send(to.data(), to.size(), bytes,
                 [&] { in_->send_many(to, std::move(bytes)); });
}

}  // namespace perfbench
