#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "ctrl/bench_plane.hpp"
#include "harness/live_cluster.hpp"
#include "kvstore/shard.hpp"
#include "kvstore/workload.hpp"
#include "net/stats.hpp"
#include "net/world.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"
#include "sim/world.hpp"
#include "wal/log.hpp"

namespace perfbench {

namespace {

using namespace wbam;
namespace fs = std::filesystem;

// --- workloads and metric table ----------------------------------------------

struct WorkloadDef {
    const char* name;
    bool net;  // loopback TCP (else sim::World)
    harness::ProtocolKind proto;
    bool kv;   // zipfian KV ops + kvstore apply sink + WAL
};

const WorkloadDef workloads[] = {
    {"lan-kv-wal", true, harness::ProtocolKind::wbcast, true},
    {"sim-ftskeen-2dest", false, harness::ProtocolKind::ftskeen, false},
};

const WorkloadDef* find_workload(const std::string& name) {
    for (const WorkloadDef& w : workloads)
        if (name == w.name) return &w;
    return nullptr;
}

// 2 groups x 3 replicas; clients: the BenchDriver, then the Coordinator.
Topology bench_topology() { return Topology(2, 3, 2); }

constexpr int setup_repeats = 9;         // setup_s = median of these
constexpr std::size_t span_cap = 50'000;  // per process, traced runs

// --- cluster -----------------------------------------------------------------

ctrl::BenchSpec make_spec(const WorkloadDef& w, std::uint64_t seed,
                          Duration measure, bool short_cycle) {
    ctrl::BenchSpec s;
    s.proto = w.proto;
    s.dest_groups = 2;
    s.payload = 20;
    s.sessions = 4;
    s.seed = seed;
    s.net_shards = 1;
    s.warmup = short_cycle ? milliseconds(20) : seconds(1);
    s.measure = measure;
    s.sample_interval = short_cycle ? milliseconds(20) : milliseconds(250);
    s.client_retry = milliseconds(500);
    if (w.kv) {
        s.workload = ctrl::WorkloadKind::kv;
        s.kv_keys = 1000;
        s.kv_theta_milli = 990;
        s.kv_read_pct = 50;
        s.kv_cross_pct = 10;
    }
    return s;
}

// One cluster: the unchanged ctrl-plane roles, each wrapped in a
// TracedProcess, on per-pid NetWorlds (one loop shard each) or in one
// sim::World.
class Cluster {
public:
    Cluster(const WorkloadDef& w, const ctrl::CoordinatorConfig& ccfg,
            std::uint64_t world_seed, bool trace, const fs::path& wal_dir)
        : probe(topo, trace, trace ? span_cap : 0),
          flags_(static_cast<std::size_t>(topo.num_processes())) {
        const ProcessId coord_pid = coordinator_of(topo);
        if (w.kv) {
            fs::remove_all(wal_dir);
            fs::create_directories(wal_dir);
            // `off`: every append and group-commit writev runs, but no
            // fsync — device flush latency is outside this benchmark.
            for (ProcessId p = 0; p < topo.num_replicas(); ++p)
                wals.push_back(std::make_unique<wal::Log>(
                    (wal_dir / ("p" + std::to_string(p) + ".wal")).string(),
                    wal::SyncMode::off));
        }
        if (trace)
            for (auto& st : probe.procs) st->spans.reserve(span_cap);
        auto factory = [&](ProcessId p) -> std::unique_ptr<Process> {
            std::unique_ptr<Process> inner;
            auto* flag = &flags_[static_cast<std::size_t>(p)];
            if (topo.is_replica(p)) {
                wal::Log* log =
                    wals.empty() ? nullptr : wals[static_cast<std::size_t>(p)].get();
                auto s = std::make_unique<ctrl::NodeShim>(topo, p, coord_pid,
                                                          flag, log);
                shims.push_back(s.get());
                inner = std::move(s);
            } else if (p == coord_pid) {
                auto c = std::make_unique<ctrl::Coordinator>(topo, ccfg);
                coordinator = c.get();
                inner = std::move(c);
            } else {
                auto d = std::make_unique<ctrl::BenchDriver>(topo, coord_pid,
                                                             flag);
                driver = d.get();
                inner = std::move(d);
            }
            return std::make_unique<TracedProcess>(std::move(inner), p, probe);
        };
        if (w.net) {
            net::NetConfig base;
            base.shards = 1;
            nets_ = harness::make_loopback_worlds(topo, world_seed, factory,
                                                  base);
            for (auto& n : nets_) n->start();
        } else {
            sim_ = std::make_unique<sim::World>(
                topo,
                std::make_unique<sim::JitterDelay>(microseconds(40),
                                                   microseconds(20)),
                world_seed,
                sim::CpuModel{.per_message = 300, .per_byte = 2,
                              .wakeup = microseconds(3)});
            for (ProcessId p = 0; p < topo.num_processes(); ++p)
                sim_->add_process(p, factory(p));
            sim_->start();
        }
    }

    ~Cluster() { shutdown(); }
    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    bool is_sim() const { return sim_ != nullptr; }
    sim::World* sim() { return sim_.get(); }

    TimePoint now() const { return sim_ ? sim_->now() : nets_.front()->now(); }

    // Lets the cluster run until `pred` holds; false if `host_limit_ns` of
    // host time (net) or `sim_limit` of simulated time (sim) ran out.
    template <typename Pred>
    bool run_until(Pred pred, std::int64_t host_limit_ns, Duration sim_limit) {
        const std::int64_t host_deadline = host_ns() + host_limit_ns;
        const TimePoint sim_deadline = sim_ ? sim_->now() + sim_limit : 0;
        while (!pred()) {
            if (sim_) {
                if (sim_->now() >= sim_deadline) return false;
                sim_->run_for(milliseconds(1));
            } else {
                if (host_ns() >= host_deadline) return false;
                std::this_thread::sleep_for(std::chrono::microseconds(500));
            }
        }
        return true;
    }

    void advance_to(TimePoint t) {
        if (sim_) {
            if (sim_->now() < t) sim_->run_until(t);
            return;
        }
        const TimePoint n = now();
        if (n < t) std::this_thread::sleep_for(std::chrono::nanoseconds(t - n));
        while (now() < t) std::this_thread::yield();
    }

    // Joins the loop threads; the worlds (and the processes they own)
    // stay readable until the Cluster is destroyed.
    void shutdown() {
        for (auto& n : nets_) n->shutdown();
    }

    const Topology topo = bench_topology();
    RunProbe probe;
    std::vector<std::unique_ptr<wal::Log>> wals;  // outlive the worlds
    ctrl::Coordinator* coordinator = nullptr;
    ctrl::BenchDriver* driver = nullptr;
    std::vector<ctrl::NodeShim*> shims;

private:
    std::vector<std::atomic<bool>> flags_;
    std::vector<std::unique_ptr<net::NetWorld>> nets_;
    std::unique_ptr<sim::World> sim_;
};

// --- window snapshots ---------------------------------------------------------

struct ProcSnap {
    std::array<std::int64_t, num_layers> cpu{}, wall{};
    std::int64_t send_wall = 0, send_bytes = 0;
    std::array<std::int64_t, 8> by_module{};
    std::int64_t resends = 0;
    std::int64_t thread_cpu = 0;  // loop thread (net, traced)
    Duration sim_busy = 0;
};

struct Snap {
    TimePoint at = 0;
    std::int64_t proc_cpu_ns = 0;
    std::int64_t rss_kb = 0;
    std::int64_t heap_kb = 0;
    std::vector<ProcSnap> procs;
    std::uint64_t writev = 0, frames_sent = 0, reads = 0, frames_recv = 0,
                  acks = 0;
    std::uint64_t sim_events = 0;
    obs::MetricsSnapshot metrics;
};

std::int64_t process_cpu_ns() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto us = [](const timeval& tv) {
        return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
    };
    return (us(ru.ru_utime) + us(ru.ru_stime)) * 1000;
}

std::int64_t rss_kb() {
    std::ifstream statm("/proc/self/statm");
    std::int64_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

Snap take_snap(Cluster& c) {
    Snap s;
    s.at = c.now();
    s.proc_cpu_ns = process_cpu_ns();
    s.rss_kb = rss_kb();
    const struct mallinfo2 mi = mallinfo2();
    s.heap_kb = static_cast<std::int64_t>((mi.uordblks + mi.hblkhd) / 1024);
    if (c.probe.tracing) {
        for (ProcessId p = 0; p < c.topo.num_processes(); ++p) {
            const ProcStats& st = *c.probe.procs[static_cast<std::size_t>(p)];
            ProcSnap ps;
            const auto ld = [](const ProcStats::Cell& v) {
                return v.load(std::memory_order_relaxed);
            };
            for (int l = 0; l < num_layers; ++l) {
                ps.cpu[l] = ld(st.cpu[l]);
                ps.wall[l] = ld(st.wall[l]);
            }
            ps.send_wall = ld(st.send_wall);
            ps.send_bytes = ld(st.send_bytes);
            for (std::size_t m = 0; m < 8; ++m) ps.by_module[m] = ld(st.sends_by_module[m]);
            ps.resends = ld(st.resends);
            if (!c.is_sim() && st.have_clock.load()) {
                timespec ts{};
                if (clock_gettime(st.cpu_clock.load(), &ts) == 0)
                    ps.thread_cpu = static_cast<std::int64_t>(ts.tv_sec) *
                                        1'000'000'000 + ts.tv_nsec;
            }
            if (c.is_sim()) ps.sim_busy = c.sim()->busy_time_of(p);
            s.procs.push_back(ps);
        }
    }
    s.writev = net::transport_stats::writev_calls();
    s.frames_sent = net::transport_stats::frames_sent();
    s.reads = net::transport_stats::read_calls();
    s.frames_recv = net::transport_stats::frames_received();
    s.acks = net::transport_stats::acks_sent();
    if (c.is_sim()) s.sim_events = c.sim()->events_processed();
    s.metrics = obs::metrics().snapshot();
    return s;
}

const stats::Histogram* find_hist(const obs::MetricsSnapshot& m,
                                  const std::string& name) {
    for (const auto& [n, h] : m.histograms)
        if (n == name) return &h;
    return nullptr;
}

double hist_ms(const obs::MetricsSnapshot& m, const std::string& name,
               double q) {
    const stats::Histogram* h = find_hist(m, name);
    return h == nullptr || h->count() == 0 ? 0.0 : to_millis(h->percentile(q));
}

// --- one measured run -----------------------------------------------------------

struct RunResult {
    bool finished = false;
    bool validated = false;
    std::string error;
    double setup_s = 0;
    std::uint64_t ops = 0;  // completed inside the window
    double throughput = 0;
    std::vector<std::int64_t> samples;  // raw in-window latencies
    std::uint64_t merged_count = 0;
    std::uint64_t issued = 0;
    std::uint64_t issued_at_close = 0;  // by the driver when the window closed
    std::uint64_t outstanding = 0;
    Snap open, close;
    Duration window = 0;
    std::vector<Span> spans;  // all processes, parents re-based
    std::vector<std::vector<MsgId>> deliveries;  // per replica
    std::vector<wal::LogStats> wal_stats;        // per replica
};

RunResult run_cluster(const WorkloadDef& w, const ctrl::BenchSpec& spec,
                      std::uint64_t world_seed, bool trace, bool measured,
                      const fs::path& wal_dir) {
    RunResult r;
    ctrl::CoordinatorConfig ccfg;
    ccfg.spec = spec;
    ccfg.shared_epoch = true;
    ccfg.quiesce = measured ? milliseconds(500) : milliseconds(60);
    ccfg.report_retry = milliseconds(100);
    ccfg.deadline = spec.warmup + spec.measure + seconds(60);
    const std::int64_t t_build = host_ns();
    Cluster c(w, ccfg, world_seed, trace, wal_dir);
    RunProbe& probe = c.probe;

    const auto limit = ccfg.deadline + seconds(5);
    if (c.run_until([&] { return probe.window_open.load() != 0; }, limit,
                    limit)) {
        r.setup_s =
            static_cast<double>(probe.start_sent_host_ns.load() - t_build) / 1e9;
        c.advance_to(probe.window_open.load());
        probe.recording.store(trace);
        if (measured) r.open = take_snap(c);
        c.advance_to(probe.window_close.load());
        if (measured) r.close = take_snap(c);
        probe.recording.store(false);
        r.window = r.close.at - r.open.at;
        r.issued_at_close = c.driver->sampler().completed_total() +
                            c.driver->sampler().outstanding();
        r.finished = c.run_until([&] { return c.coordinator->finished(); },
                                 limit, limit);
        r.error = r.finished ? "" : "coordinator deadline: no merged result";
    } else {
        r.error = "the coordinator never sent START";
    }
    // SHUTDOWN stopped the driver issuing; the ops it still had in flight
    // must be acked by every destination group before teardown.
    if (r.finished)
        c.run_until([&] { return c.driver->sampler().outstanding() == 0; },
                    3'000'000'000, milliseconds(200));
    c.shutdown();

    r.validated = r.finished && c.coordinator->succeeded();
    if (r.finished && !r.validated) r.error = c.coordinator->error();
    const harness::FigPoint pt = c.coordinator->result_point();
    r.ops = pt.ops;
    r.throughput = pt.throughput_ops_s;
    r.merged_count = c.coordinator->merged_latency().count();
    r.outstanding = c.driver->sampler().outstanding();
    r.issued = c.driver->sampler().completed_total() + r.outstanding;
    {
        const std::lock_guard<std::mutex> guard(probe.samples_mutex);
        r.samples = probe.samples;
    }
    for (ctrl::NodeShim* s : c.shims) r.deliveries.push_back(s->deliveries());
    for (auto& log : c.wals) r.wal_stats.push_back(log->stats());
    for (auto& st : probe.procs) {
        const auto base = static_cast<std::int32_t>(r.spans.size());
        for (Span s : st->spans) {
            if (s.parent >= 0) s.parent += base;
            r.spans.push_back(s);
        }
        st->spans.clear();
        st->spans.shrink_to_fit();
    }
    return r;
}

// --- derived metrics -------------------------------------------------------------

class Table {
public:
    explicit Table(const std::vector<MetricDef>& defs) {
        for (const MetricDef& d : defs) values_[d.name] = 0;
        defs_ = &defs;
    }
    void set(const std::string& name, double v) {
        const auto it = values_.find(name);
        if (it == values_.end()) throw std::logic_error("undeclared metric " + name);
        it->second = v;
    }
    std::vector<Metric> rows() const {
        std::vector<Metric> out;
        for (const MetricDef& d : *defs_)
            out.push_back({d.name, d.unit, values_.at(d.name)});
        return out;
    }

private:
    const std::vector<MetricDef>* defs_;
    std::map<std::string, double> values_;
};

void per_layer(const WorkloadDef& w, const RunResult& r, Table& t,
               Outcome& out) {
    const Topology topo = bench_topology();
    const std::uint64_t ops = r.ops;
    const double window_s = to_secs(r.window);
    const std::string pfx =
        w.proto == harness::ProtocolKind::wbcast ? "wbcast" : "ftskeen";
    // Window delta of a ProcSnap field, summed over the processes `pred`
    // selects (d: over all of them).
    auto d_if = [&](auto pred, auto f) {
        std::int64_t sum = 0;
        for (std::size_t p = 0; p < r.close.procs.size(); ++p)
            if (pred(static_cast<ProcessId>(p)))
                sum += f(r.close.procs[p]) - f(r.open.procs[p]);
        return static_cast<double>(sum);
    };
    auto d = [&](auto f) { return d_if([](ProcessId) { return true; }, f); };
    const auto is_leader = [&](ProcessId p) {
        return role_of(topo, p) == Role::leader;
    };
    const auto is_follower = [&](ProcessId p) {
        return role_of(topo, p) == Role::follower;
    };
    const auto us_per_op = [&](double ns) { return per_op(ns / 1e3, ops); };
    const auto layer_cpu = [](int l) {
        return [l](const ProcSnap& s) { return s.cpu[static_cast<std::size_t>(l)]; };
    };
    const auto proto_cpu = [](const ProcSnap& s) {
        return s.cpu[layer_proto] + s.cpu[layer_timer];
    };
    const auto by_module = [](wbam::codec::Module m) {
        return [m](const ProcSnap& s) {
            return s.by_module[static_cast<std::size_t>(m) & 7u];
        };
    };

    // Handler self CPU (children = sends) by layer, send-call CPU, and loop
    // thread CPU outside both.
    double handler_cpu = 0;
    for (int l = 0; l < num_layers; ++l) handler_cpu += d(layer_cpu(l));
    const double send_cpu = d([](const ProcSnap& s) { return s.send_wall; });
    const double thread_cpu = w.net ? d([](const ProcSnap& s) { return s.thread_cpu; }) : 0;
    const double loop_self = w.net ? thread_cpu - handler_cpu - send_cpu : 0;
    const double proc_cpu = static_cast<double>(r.close.proc_cpu_ns - r.open.proc_cpu_ns);

    if (w.net) {
        t.set("net.loop_self_cpu_us_per_op", us_per_op(loop_self));
        const double frames = static_cast<double>(r.close.frames_sent - r.open.frames_sent);
        const double writev = static_cast<double>(r.close.writev - r.open.writev);
        t.set("net.frames_per_op", per_op(frames, ops));
        t.set("net.writev_per_op", per_op(writev, ops));
        t.set("net.frames_per_writev", ratio(frames, writev));
        t.set("net.reads_per_op", per_op(static_cast<double>(r.close.reads - r.open.reads), ops));
        t.set("net.acks_per_op", per_op(static_cast<double>(r.close.acks - r.open.acks), ops));
    }
    t.set("net.send_call_cpu_us_per_op", us_per_op(send_cpu));
    t.set("net.send_bytes_per_op",
          per_op(d([](const ProcSnap& s) { return s.send_bytes; }), ops));

    t.set(pfx + ".leader_handler_cpu_us_per_op", us_per_op(d_if(is_leader, proto_cpu)));
    t.set(pfx + ".follower_handler_cpu_us_per_op",
          us_per_op(d_if(is_follower, proto_cpu)));
    {
        double busy = 0;
        for (GroupId g = 0; g < topo.num_groups(); ++g) {
            const auto p = static_cast<std::size_t>(topo.initial_leader(g));
            busy += w.net ? static_cast<double>(r.close.procs[p].thread_cpu -
                                                r.open.procs[p].thread_cpu)
                          : static_cast<double>(r.close.procs[p].sim_busy -
                                                r.open.procs[p].sim_busy);
        }
        t.set(pfx + ".leader_busy_frac",
              ratio(busy / topo.num_groups(), static_cast<double>(r.window)));
    }
    t.set(pfx + ".proto_msgs_per_op", per_op(d(by_module(codec::Module::proto)), ops));

    const obs::MetricsSnapshot stages = r.close.metrics.delta_since(r.open.metrics);
    const std::string h = "stage/" + pfx + "/";
    const double lr = hist_ms(stages, h + "leader_receipt", 0.5);
    const double ts = hist_ms(stages, h + "ts_agreed", 0.5);
    const double gts = hist_ms(stages, h + "gts_known", 0.5);
    const double del = hist_ms(stages, h + "delivered", 0.5);
    t.set(pfx + ".stage.leader_receipt_ms", lr);
    t.set(pfx + ".stage.ts_agreed_ms", ts - lr);
    t.set(pfx + ".stage.gts_known_ms", gts - ts);
    t.set(pfx + ".stage.delivered_ms", del - gts);
    if (w.proto == harness::ProtocolKind::wbcast)
        t.set("wbcast.stage.delivered_p999_ms", hist_ms(stages, h + "delivered", 0.999));

    t.set("paxos.handler_cpu_us_per_op", us_per_op(d(layer_cpu(layer_paxos))));
    t.set("paxos.msgs_per_op", per_op(d(by_module(codec::Module::paxos)), ops));
    t.set("paxos.stage.chosen_ms", hist_ms(stages, "stage/paxos/chosen", 0.5));
    t.set("elect.handler_cpu_us_per_op", us_per_op(d(layer_cpu(layer_elect))));
    t.set("elect.msgs_per_s", ratio(d(by_module(codec::Module::elect)), window_s));
    t.set("ctrl.handler_cpu_us_per_op", us_per_op(d(layer_cpu(layer_ctrl))));
    t.set("client.handler_cpu_us_per_op", us_per_op(d(layer_cpu(layer_client))));
    t.set("client.resend_frac",
          ratio(d([](const ProcSnap& s) { return s.resends; }),
                static_cast<double>(r.issued)));
    std::vector<std::int64_t> lat = r.samples;
    const double p50 = to_millis(quantile(lat, 0.5));
    t.set("client.ack_return_ms", del > 0 ? p50 - del : 0);

    if (w.kv) {
        // Replica-side handler wall time not spent on CPU: WAL writes and
        // preemption on the shared loop threads.
        const auto replica = [&](ProcessId p) { return topo.is_replica(p); };
        double wall = 0, cpu = 0;
        for (int l = 0; l < num_layers; ++l) {
            wall += d_if(replica, [l](const ProcSnap& s) { return s.wall[static_cast<std::size_t>(l)]; });
            cpu += d_if(replica, layer_cpu(l));
        }
        t.set("wal.handler_offcpu_us_per_op", us_per_op(wall - cpu));
    }
    if (!w.net) {
        const double events = static_cast<double>(r.close.sim_events - r.open.sim_events);
        t.set("sim.events_per_op", per_op(events, ops));
        t.set("sim.host_ns_per_event", ratio(proc_cpu, events));
    }

    // Memory retained per op across the window: malloc's in-use bytes
    // (span storage is reserved before the window opens) and resident set.
    t.set("mem.heap_kb_per_op",
          per_op(static_cast<double>(r.close.heap_kb - r.open.heap_kb), ops));
    t.set("mem.rss_kb_per_op",
          per_op(static_cast<double>(r.close.rss_kb - r.open.rss_kb), ops));

    // The traced run's own end-to-end figures (minus the untraced run of
    // the same workload = the tracing overhead).
    const double cpu_us = us_per_op(proc_cpu);
    t.set("trace.cpu_us_per_op", cpu_us);
    t.set("trace.throughput_ops_s", r.throughput);
    t.set("trace.latency_p50_ms", p50);
    const double accounted = us_per_op(handler_cpu + send_cpu + loop_self);
    if (w.net) {
        t.set("ledger.accounted_frac", ratio(accounted, cpu_us));
        char line[256];
        std::snprintf(line, sizeof line,
                      "ledger %s: handlers %.1f + sends %.1f + loop self %.1f "
                      "= %.1f us/op vs cpu_us_per_op %.1f (accounted %.3f)",
                      w.name, us_per_op(handler_cpu), us_per_op(send_cpu),
                      us_per_op(loop_self), accounted, cpu_us,
                      ratio(accounted, cpu_us));
        out.notes.push_back(line);
        char seg[256];
        std::snprintf(seg, sizeof seg,
                      "latency %s: stage segments %.3f + ack return %.3f = "
                      "%.3f ms vs latency_p50_ms %.3f",
                      w.name, del, p50 - del, p50, p50);
        out.notes.push_back(seg);
    }
}

// Span-derived metrics: FIFO linkage share and the send-to-handler hop.
void span_metrics(RunResult& r, Table& t) {
    std::size_t messages = 0;
    for (const Span& s : r.spans) messages += s.kind == SpanKind::message;
    const std::size_t linked = link_fifo(r.spans);
    std::vector<std::int64_t> hops;
    for (const Span& s : r.spans)
        if (s.kind == SpanKind::message && s.link >= 0)
            hops.push_back(s.at - r.spans[static_cast<std::size_t>(s.link)].at);
    t.set("trace.spans", static_cast<double>(r.spans.size()));
    t.set("trace.linked_frac", ratio(static_cast<double>(linked),
                                     static_cast<double>(messages)));
    t.set("net.hop_p50_us", static_cast<double>(quantile(hops, 0.5)) / 1e3);
}

void write_spans(const RunResult& r, const std::string& path) {
    if (path.empty()) return;
    const Topology topo = bench_topology();
    const std::vector<std::int64_t> self_wall = self_times(r.spans);
    fs::create_directories(fs::path(path).parent_path());
    std::ofstream f(path);
    f << "idx\tpid\trole\tkind\tmodule\ttype\tabout\tpeer\tchannel_seq\tenvelopes"
         "\tparent\tlink\tat_ns\tt0_ns\tt1_ns\tcpu_ns\tself_wall_ns\n";
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
        const Span& s = r.spans[i];
        f << i << '\t' << s.pid << '\t'
          << to_string(role_of(topo, s.pid)) << '\t'
          << static_cast<int>(s.kind) << '\t'
          << static_cast<int>(s.module) << '\t' << static_cast<int>(s.type)
          << '\t' << s.about << '\t' << s.peer << '\t' << s.channel_seq << '\t'
          << s.envelopes << '\t' << s.parent << '\t' << s.link << '\t' << s.at
          << '\t' << s.t0 << '\t' << s.t1 << '\t' << s.cpu << '\t' << self_wall[i]
          << '\n';
    }
}

// WAL layer: totals from Log::stats(), and append/commit cost from
// replaying one replica's recovered records through a fresh Log at the
// run's records-per-commit batch size.
void wal_metrics(const RunResult& r, const fs::path& wal_dir, Table& t) {
    wal::LogStats sum;
    for (const wal::LogStats& s : r.wal_stats) {
        sum.appends += s.appends;
        sum.commits += s.commits;
        sum.fsyncs += s.fsyncs;
        sum.bytes_written += s.bytes_written;
    }
    const std::uint64_t done = r.issued - r.outstanding;
    t.set("wal.appends_per_op", per_op(static_cast<double>(sum.appends), done));
    t.set("wal.commits_per_op", per_op(static_cast<double>(sum.commits), done));
    t.set("wal.fsyncs_per_op", per_op(static_cast<double>(sum.fsyncs), done));
    t.set("wal.bytes_per_op", per_op(static_cast<double>(sum.bytes_written), done));

    const wal::LogStats& s0 = r.wal_stats.front();
    const std::uint64_t batch =
        std::max<std::uint64_t>(1, s0.commits ? s0.appends / s0.commits : 1);
    const wal::Log src((wal_dir / "p0.wal").string(), wal::SyncMode::off);
    const fs::path replay_path = wal_dir / "replay.wal";
    fs::remove(replay_path);
    wal::Log dst(replay_path.string(), wal::SyncMode::off);
    std::int64_t append_ns = 0, commit_ns = 0;
    std::uint64_t appends = 0, commits = 0;
    const std::size_t n = std::min<std::size_t>(src.recovered().size(), 200'000);
    for (std::size_t i = 0; i < n; ++i) {
        const wal::Record& rec = src.recovered()[i];
        const std::int64_t a = host_ns();
        dst.append(rec.type, Bytes{}, rec.body);
        append_ns += host_ns() - a;
        ++appends;
        if (appends % batch == 0 || i + 1 == n) {
            const std::int64_t c = host_ns();
            dst.commit();
            commit_ns += host_ns() - c;
            ++commits;
        }
    }
    t.set("wal.append_us", per_op(static_cast<double>(append_ns) / 1e3, appends));
    t.set("wal.commit_us", per_op(static_cast<double>(commit_ns) / 1e3, commits));
}

// kvstore layer: ShardState::apply over the driver's op stream, regenerated
// from the spec seed exactly as BenchDriver draws it.
void kv_metrics(const ctrl::BenchSpec& spec, ProcessId driver_pid,
                std::uint64_t ops, Table& t) {
    kv::WorkloadConfig wc;
    wc.num_groups = 2;
    wc.keys = spec.kv_keys;
    wc.theta = static_cast<double>(spec.kv_theta_milli) / 1000.0;
    wc.read_pct = spec.kv_read_pct;
    wc.cross_pct = spec.kv_cross_pct;
    const kv::KvWorkload gen(wc);
    Rng rng(spec.seed * 1000003 + static_cast<std::uint64_t>(driver_pid));
    std::vector<kv::KvRequest> reqs;
    reqs.reserve(ops);
    std::uint64_t cross = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        reqs.push_back(gen.next(rng));
        cross += reqs.back().cross_shard;
    }
    std::vector<kv::ShardState> shards{kv::ShardState(0, 2), kv::ShardState(1, 2)};
    const std::int64_t t0 = host_ns();
    for (const kv::KvRequest& req : reqs)
        for (const GroupId g : req.dests)
            shards[static_cast<std::size_t>(g)].apply(req.op);
    const std::int64_t t1 = host_ns();
    t.set("kvstore.apply_us_per_op", per_op(static_cast<double>(t1 - t0) / 1e3, ops));
    t.set("kvstore.cross_shard_frac", per_op(static_cast<double>(cross), ops));
}

// Correctness of one run; appends the reasons it failed to `problems`.
void check_run(const RunResult& r, const std::string& label,
               std::vector<std::string>& problems) {
    const auto fail = [&](const std::string& why) {
        problems.push_back(label + ": " + why);
    };
    if (!r.finished || !r.validated) {
        fail(r.error.empty() ? "coordinator validation failed" : r.error);
        return;
    }
    if (r.ops == 0) fail("no op completed inside the window");
    if (r.samples.size() != r.ops || r.merged_count != r.ops)
        fail("raw samples (" + std::to_string(r.samples.size()) +
             ") / merged histogram (" + std::to_string(r.merged_count) +
             ") disagree with window ops (" + std::to_string(r.ops) + ")");
    if (r.outstanding != 0)
        fail(std::to_string(r.outstanding) + " ops never acked by every group");
}

// What the simulated metrics rest on: the window's completions and raw
// latencies, and every replica's delivery order of the ops issued before
// the window closed. The tail after it is left out: REPLICA_DONE carries
// the process-wide metrics snapshot, whose size (and so its simulated
// cost) grows with every cluster the process has run.
std::string sim_fingerprint(const RunResult& r) {
    std::uint64_t h = 0;
    for (const std::int64_t s : r.samples)
        h = ctrl::fold_delivery_digest(h, static_cast<MsgId>(s));
    for (const auto& seq : r.deliveries)
        for (const MsgId id : seq)
            if ((id & 0xffffffffu) <= r.issued_at_close)
                h = ctrl::fold_delivery_digest(h, id);
    return std::to_string(r.ops) + "/" + std::to_string(r.issued_at_close) +
           "/" + std::to_string(h);
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const WorkloadDef& w : workloads) v.emplace_back(w.name);
        return v;
    }();
    return names;
}

const std::vector<MetricDef>& end_to_end_metrics() {
    static const std::vector<MetricDef> defs = {
        {"throughput_ops_s", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p999_ms", "ms"},
        {"cpu_us_per_op", "us"},
        {"setup_s", "s"},
    };
    return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
    static const std::vector<MetricDef> defs = {
        {"net.loop_self_cpu_us_per_op", "us"},
        {"net.send_call_cpu_us_per_op", "us"},
        {"net.frames_per_op", "count"},
        {"net.writev_per_op", "count"},
        {"net.frames_per_writev", "count"},
        {"net.reads_per_op", "count"},
        {"net.acks_per_op", "count"},
        {"net.send_bytes_per_op", "B"},
        {"net.hop_p50_us", "us"},
        {"wbcast.leader_handler_cpu_us_per_op", "us"},
        {"wbcast.follower_handler_cpu_us_per_op", "us"},
        {"wbcast.leader_busy_frac", "frac"},
        {"wbcast.proto_msgs_per_op", "count"},
        {"wbcast.stage.leader_receipt_ms", "ms"},
        {"wbcast.stage.ts_agreed_ms", "ms"},
        {"wbcast.stage.gts_known_ms", "ms"},
        {"wbcast.stage.delivered_ms", "ms"},
        {"wbcast.stage.delivered_p999_ms", "ms"},
        {"ftskeen.leader_handler_cpu_us_per_op", "us"},
        {"ftskeen.follower_handler_cpu_us_per_op", "us"},
        {"ftskeen.leader_busy_frac", "frac"},
        {"ftskeen.proto_msgs_per_op", "count"},
        {"ftskeen.stage.leader_receipt_ms", "ms"},
        {"ftskeen.stage.ts_agreed_ms", "ms"},
        {"ftskeen.stage.gts_known_ms", "ms"},
        {"ftskeen.stage.delivered_ms", "ms"},
        {"paxos.handler_cpu_us_per_op", "us"},
        {"paxos.msgs_per_op", "count"},
        {"paxos.stage.chosen_ms", "ms"},
        {"elect.handler_cpu_us_per_op", "us"},
        {"elect.msgs_per_s", "1/s"},
        {"ctrl.handler_cpu_us_per_op", "us"},
        {"client.handler_cpu_us_per_op", "us"},
        {"client.resend_frac", "frac"},
        {"client.ack_return_ms", "ms"},
        {"client.failed_frac", "frac"},
        {"wal.appends_per_op", "count"},
        {"wal.commits_per_op", "count"},
        {"wal.fsyncs_per_op", "count"},
        {"wal.bytes_per_op", "B"},
        {"wal.append_us", "us"},
        {"wal.commit_us", "us"},
        {"wal.handler_offcpu_us_per_op", "us"},
        {"kvstore.apply_us_per_op", "us"},
        {"kvstore.cross_shard_frac", "frac"},
        {"sim.events_per_op", "count"},
        {"sim.host_ns_per_event", "ns"},
        {"mem.heap_kb_per_op", "KB"},
        {"mem.rss_kb_per_op", "KB"},
        {"ledger.accounted_frac", "frac"},
        {"trace.cpu_us_per_op", "us"},
        {"trace.throughput_ops_s", "1/s"},
        {"trace.latency_p50_ms", "ms"},
        {"trace.linked_frac", "frac"},
        {"trace.spans", "count"},
    };
    return defs;
}

Outcome run(const Options& opt) {
    Outcome out;
    const WorkloadDef* w = find_workload(opt.workload);
    if (w == nullptr) throw std::invalid_argument("unknown workload " + opt.workload);
    Rng seeds(opt.seed);
    const std::uint64_t spec_seed = seeds.next_u64();
    const std::uint64_t world_seed = seeds.next_u64();
    const fs::path scratch = fs::path(opt.scratch_dir) /
                             (std::string(w->name) + "-" + std::to_string(getpid()));

    // Short set-up cycles: the setup_s sample, a correctness check of
    // their own, and on the simulator a determinism probe (two cycles with
    // one seed must agree exactly).
    std::vector<double> setups;
    std::string fingerprint;
    const int short_cycles = opt.trace ? (w->net ? 0 : 2) : setup_repeats - 1;
    for (int i = 0; i < short_cycles; ++i) {
        const ctrl::BenchSpec spec =
            make_spec(*w, spec_seed, milliseconds(80), /*short_cycle=*/true);
        const RunResult r = run_cluster(*w, spec, world_seed, false, false,
                                        scratch / ("setup" + std::to_string(i)));
        check_run(r, "setup cycle " + std::to_string(i), out.problems);
        setups.push_back(r.setup_s);
        if (!w->net) {
            const std::string fp = sim_fingerprint(r);
            if (i == 0) fingerprint = fp;
            else if (fp != fingerprint)
                out.problems.push_back("sim: identical seeds gave different "
                                       "runs (" + fp + " vs " + fingerprint + ")");
        }
    }

    // The sim window is simulated time, and the host CPU a simulated
    // second costs grows with the window (about 1.6 s over a 25 s window,
    // 2.1 s over 40 s): half of --seconds keeps the sim run's host time
    // near --seconds.
    const Duration window = w->net ? seconds(opt.seconds)
                                   : milliseconds(opt.seconds * 500);
    const ctrl::BenchSpec spec = make_spec(*w, spec_seed, window, false);
    const fs::path wal_dir = scratch / "main";
    RunResult r = run_cluster(*w, spec, world_seed, opt.trace, true, wal_dir);
    check_run(r, "measured run", out.problems);
    setups.push_back(r.setup_s);

    out.attempted = std::max<std::uint64_t>(r.issued, 1);
    out.failed = r.finished && r.validated ? r.outstanding : out.attempted;
    out.correct = out.problems.empty();

    const std::uint64_t ops = r.ops;
    if (!opt.trace) {
        Table t(end_to_end_metrics());
        t.set("throughput_ops_s", r.throughput);
        std::vector<std::int64_t> lat = r.samples;
        t.set("latency_p50_ms", to_millis(quantile(lat, 0.5)));
        // Pooled over the window: the tail grows with the state the
        // replicas retain, and the median of per-block p99.9s (one block
        // from the middle of that trend) spread twice as much between runs.
        t.set("latency_p999_ms", to_millis(quantile(lat, 0.999)));
        t.set("cpu_us_per_op",
              per_op(static_cast<double>(r.close.proc_cpu_ns - r.open.proc_cpu_ns) / 1e3, ops));
        std::vector<std::int64_t> setup_ns;
        for (const double s : setups) setup_ns.push_back(static_cast<std::int64_t>(s * 1e9));
        t.set("setup_s", static_cast<double>(quantile(setup_ns, 0.5)) / 1e9);
        out.metrics = t.rows();
        if (r.samples.size() < 10'000)
            out.notes.push_back("warning: only " + std::to_string(r.samples.size()) +
                                " latency samples; p99.9 has fewer than 10 beyond it");
    } else {
        Table t(per_layer_metrics());
        if (r.finished) {
            per_layer(*w, r, t, out);
            span_metrics(r, t);
            if (w->kv) {
                wal_metrics(r, wal_dir, t);
                kv_metrics(spec, bench_topology().client(0), r.issued, t);
            }
            write_spans(r, opt.spans_out);
        }
        t.set("client.failed_frac", ratio(static_cast<double>(out.failed),
                                          static_cast<double>(out.attempted)));
        out.metrics = t.rows();
    }
    std::error_code ec;
    fs::remove_all(scratch, ec);
    return out;
}

}  // namespace perfbench
