#include "ctrl/bench_plane.hpp"

#include "common/assert.hpp"
#include "wal/records.hpp"

namespace wbam::ctrl {

namespace {

bool is_ctrl(const BufferSlice& bytes) {
    return !bytes.empty() &&
           bytes.data()[0] == static_cast<std::uint8_t>(codec::Module::ctrl);
}

constexpr Duration tick_interval = milliseconds(50);

}  // namespace

// --- NodeShim ----------------------------------------------------------------

NodeShim::NodeShim(Topology topo, ProcessId self, ProcessId coordinator,
                   std::atomic<bool>* shutdown_flag, wal::Log* wal)
    : topo_(std::move(topo)), self_(self), coordinator_(coordinator),
      shutdown_flag_(shutdown_flag), wal_(wal) {
    WBAM_ASSERT(topo_.is_replica(self_));
    if (wal_ == nullptr) return;
    // The pre-crash delivery sequence: the replica's `delivered` records,
    // in delivery order. Its replay suppresses everything at or below the
    // highest gts among them and re-emits only what lies above it.
    for (const wal::Record& r : wal_->recovered()) {
        if (r.type != wal::tag(wal::RecordType::delivered)) continue;
        const MsgId id = wal::decode_delivered(r.body).id;
        deliveries_.push_back(id);
        digest_ = fold_delivery_digest(digest_, id);
    }
}

void NodeShim::on_start(Context& ctx) {
    // The transport retains the frame until acked and re-dials with
    // backoff, so one READY reaches the coordinator even if it binds late.
    ctx.send(coordinator_,
             encode_ctrl(CtrlMsgType::ready, ReadyMsg{NodeRole::replica}));
}

void NodeShim::on_message(Context& ctx, ProcessId from,
                          const BufferSlice& bytes) {
    if (is_ctrl(bytes)) {
        try {
            const codec::EnvelopeView env(bytes);
            handle_ctrl(ctx, env);
        } catch (const codec::DecodeError&) {
            // Malformed control traffic: drop (same policy as protocols).
        }
    } else if (!inner_) {
        // A peer whose RUN_SPEC arrived first may already talk protocol to
        // us; park the mail until our spec builds the stack.
        early_mail_.emplace_back(from, bytes);
    } else {
        inner_->on_message(ctx, from, bytes);
    }
}

void NodeShim::on_timer(Context& ctx, TimerId id) {
    if (inner_) inner_->on_timer(ctx, id);
}

void NodeShim::handle_ctrl(Context& ctx, const codec::EnvelopeView& env) {
    switch (static_cast<CtrlMsgType>(env.type)) {
        case CtrlMsgType::run_spec: {
            codec::Reader body = env.body;
            const BenchSpec spec = BenchSpec::decode(body);
            if (!inner_) {
                if (spec.workload == WorkloadKind::kv && !kv_state_)
                    kv_state_ = std::make_unique<kv::ShardState>(
                        topo_.group_of(self_), topo_.num_groups());
                DeliverySink sink = [this](Context&, GroupId,
                                           const AppMessage& m) {
                    const std::lock_guard<std::mutex> guard(deliveries_mutex_);
                    deliveries_.push_back(m.id);
                    digest_ = fold_delivery_digest(digest_, m.id);
                    // KV workload: payloads are encoded KvOps; apply in
                    // delivery order so state_hash proves every replica of
                    // the group applied the same sequence.
                    if (kv_state_) {
                        try {
                            codec::Reader r(m.payload);
                            kv_state_->apply(kv::KvOp::decode(r));
                        } catch (const codec::DecodeError&) {
                            // Undecodable payload: counted in the delivery
                            // digest but not applied (same divergence
                            // detection either way).
                        }
                    }
                };
                ReplicaConfig rc = spec.replica_config();
                rc.wal = wal_;
                inner_ = harness::make_replica(spec.proto, topo_, self_, sink,
                                               rc);
                inner_->on_start(ctx);
                for (auto& [from, mail] : early_mail_)
                    inner_->on_message(ctx, from, mail);
                early_mail_.clear();
            }
            ctx.send(coordinator_, encode_ctrl(CtrlMsgType::spec_ok));
            return;
        }
        case CtrlMsgType::start:
            return;  // replicas serve continuously
        case CtrlMsgType::report: {
            ReplicaDoneMsg done;
            {
                const std::lock_guard<std::mutex> guard(deliveries_mutex_);
                done.delivered = deliveries_.size();
                done.digest = digest_;
                done.app_hash = kv_state_ ? kv_state_->state_hash() : 0;
            }
            done.metrics = obs::metrics().snapshot();
            ctx.send(coordinator_,
                     encode_ctrl(CtrlMsgType::replica_done, done));
            return;
        }
        case CtrlMsgType::shutdown:
            if (shutdown_flag_ != nullptr) shutdown_flag_->store(true);
            return;
        default:
            return;  // not addressed to replicas
    }
}

std::vector<MsgId> NodeShim::deliveries() const {
    const std::lock_guard<std::mutex> guard(deliveries_mutex_);
    return deliveries_;
}

// --- BenchDriver -------------------------------------------------------------

BenchDriver::BenchDriver(Topology topo, ProcessId coordinator,
                         std::atomic<bool>* shutdown_flag)
    : topo_(std::move(topo)), coordinator_(coordinator),
      shutdown_flag_(shutdown_flag) {}

void BenchDriver::on_start(Context& ctx) {
    ctx.send(coordinator_,
             encode_ctrl(CtrlMsgType::ready, ReadyMsg{NodeRole::driver}));
}

void BenchDriver::on_message(Context& ctx, ProcessId, const BufferSlice& bytes) {
    try {
        const codec::EnvelopeView env(bytes);
        if (env.module == codec::Module::ctrl) {
            handle_ctrl(ctx, env);
            return;
        }
        if (env.module != codec::Module::client ||
            env.type != static_cast<std::uint8_t>(ClientMsgType::deliver_ack))
            return;
        codec::Reader body = env.body;
        const GroupId group = DeliverAckMsg::decode(body).group;
        const auto it = pending_.find(env.about);
        if (it == pending_.end()) return;  // duplicate after completion
        PendingOp& p = it->second;
        p.acked.insert(group);
        if (p.acked.size() == p.msg.dests.size()) {
            sampler_.note_completion(p.msg.submit_ts, ctx.now());
            pending_.erase(it);
            // Closed loop: this session immediately issues its next op
            // (even past window close — sustained load keeps the other
            // drivers' measurements honest until every window is closed).
            if (!stopped_ && !load_stopped_) issue(ctx);
        }
    } catch (const codec::DecodeError&) {
    }
}

void BenchDriver::handle_ctrl(Context& ctx, const codec::EnvelopeView& env) {
    switch (static_cast<CtrlMsgType>(env.type)) {
        case CtrlMsgType::run_spec: {
            codec::Reader body = env.body;
            spec_ = BenchSpec::decode(body);
            have_spec_ = true;
            ctx.send(coordinator_, encode_ctrl(CtrlMsgType::spec_ok));
            return;
        }
        case CtrlMsgType::start: {
            if (!have_spec_ || started_) return;
            codec::Reader body = env.body;
            begin(ctx, StartMsg::decode(body));
            return;
        }
        case CtrlMsgType::stop_load:
            load_stopped_ = true;
            return;
        case CtrlMsgType::shutdown:
            stopped_ = true;
            if (sample_timer_ != invalid_timer) ctx.cancel_timer(sample_timer_);
            if (retry_timer_ != invalid_timer) ctx.cancel_timer(retry_timer_);
            sample_timer_ = retry_timer_ = invalid_timer;
            if (shutdown_flag_ != nullptr) shutdown_flag_->store(true);
            return;
        default:
            return;  // not addressed to drivers
    }
}

void BenchDriver::begin(Context& ctx, const StartMsg& start) {
    started_ = true;
    workload_rng_ = Rng(spec_.seed * 1000003 +
                        static_cast<std::uint64_t>(ctx.self()));
    if (spec_.workload == WorkloadKind::kv) {
        kv::WorkloadConfig wc;
        wc.num_groups = topo_.num_groups();
        wc.keys = spec_.kv_keys;
        wc.theta = static_cast<double>(spec_.kv_theta_milli) / 1000.0;
        wc.read_pct = spec_.kv_read_pct;
        wc.cross_pct = spec_.kv_cross_pct;
        kv_workload_ = std::make_unique<kv::KvWorkload>(wc);
    }
    if (start.window_open > 0) {
        // Shared clock epoch: every driver measures the same wall-clock
        // window the coordinator computed.
        window_open_ = start.window_open;
        window_close_ = start.window_close;
    } else {
        window_open_ = ctx.now() + spec_.warmup;
        window_close_ = window_open_ + spec_.measure;
    }
    sampler_.set_window(window_open_, window_close_);
    for (std::uint32_t s = 0; s < spec_.sessions; ++s) issue(ctx);
    sample_timer_ = ctx.set_timer(spec_.sample_interval);
    retry_timer_ = ctx.set_timer(spec_.client_retry);
}

void BenchDriver::issue(Context& ctx) {
    std::vector<GroupId> dests;
    BufferSlice payload;
    if (kv_workload_) {
        // Scale-out workload: the op's key placement decides the involved
        // shards — single-shard gets/puts go to one group, cross-shard
        // transfers to exactly the two owning groups (genuineness is what
        // makes adding groups add capacity).
        kv::KvRequest req = kv_workload_->next(workload_rng_);
        dests = std::move(req.dests);
        codec::Writer w;
        req.op.encode(w);
        payload = std::move(w).take();
    } else {
        const int k = topo_.num_groups();
        const int d = std::min(static_cast<int>(spec_.dest_groups), k);
        dests.reserve(static_cast<std::size_t>(d));
        std::unordered_set<GroupId> chosen;
        while (static_cast<int>(dests.size()) < d) {
            const auto g = static_cast<GroupId>(
                workload_rng_.next_below(static_cast<std::uint64_t>(k)));
            if (chosen.insert(g).second) dests.push_back(g);
        }
        payload = Bytes(spec_.payload, 0x77);
    }
    const MsgId id = make_msg_id(ctx.self(), seq_++);
    AppMessage m = make_app_message(id, std::move(dests), std::move(payload));
    m.submit_ts = ctx.now();
    sampler_.note_issue();
    const Buffer wire = encode_multicast_request(m);
    for (const GroupId g : m.dests) ctx.send(topo_.initial_leader(g), wire);
    PendingOp& p = pending_[id];
    p.msg = std::move(m);
    p.last_send = ctx.now();
}

void BenchDriver::flush_samples(Context& ctx) {
    SampleMsg msg;
    msg.completed_in_window = sampler_.completed_in_window();
    msg.latencies_ns = sampler_.drain_samples();
    if (!msg.latencies_ns.empty() || !done_sent_)
        ctx.send(coordinator_, encode_ctrl(CtrlMsgType::sample, msg));
}

void BenchDriver::on_timer(Context& ctx, TimerId id) {
    if (stopped_) return;
    if (id == sample_timer_) {
        sample_timer_ = ctx.set_timer(spec_.sample_interval);
        flush_samples(ctx);
        if (!done_sent_ && ctx.now() >= window_close_) {
            // FIFO channel: the final SAMPLE above lands before this, so
            // the coordinator's histogram is complete when it sees it.
            DriverDoneMsg done;
            done.completed_in_window = sampler_.completed_in_window();
            done.issued = seq_;
            done.window_ns = window_close_ - window_open_;
            ctx.send(coordinator_,
                     encode_ctrl(CtrlMsgType::driver_done, done));
            done_sent_ = true;
        }
        return;
    }
    if (id == retry_timer_) {
        retry_timer_ = ctx.set_timer(spec_.client_retry);
        for (auto& [mid, p] : pending_) {
            if (ctx.now() - p.last_send < spec_.client_retry) continue;
            p.last_send = ctx.now();
            // Stuck (lost message or leader change): re-broadcast to every
            // member of the unacked groups.
            const Buffer wire = encode_multicast_request(p.msg);
            for (const GroupId g : p.msg.dests) {
                if (p.acked.count(g)) continue;
                for (const ProcessId r : topo_.members(g)) ctx.send(r, wire);
            }
        }
    }
}

// --- Coordinator -------------------------------------------------------------

Coordinator::Coordinator(Topology topo, CoordinatorConfig cfg)
    : topo_(std::move(topo)), cfg_(std::move(cfg)) {
    WBAM_ASSERT_MSG(topo_.num_clients() >= 2,
                    "bench topology needs >= 1 driver + the coordinator");
    self_ = topo_.client(topo_.num_clients() - 1);
    participants_ = topo_.num_processes() - 1;
    drivers_ = topo_.num_clients() - 1;
}

void Coordinator::broadcast(Context& ctx, const Buffer& wire) {
    for (ProcessId p = 0; p < topo_.num_processes(); ++p)
        if (p != self_) ctx.send(p, wire);
}

void Coordinator::on_start(Context& ctx) {
    started_at_ = ctx.now();
    tick_timer_ = ctx.set_timer(tick_interval);
}

void Coordinator::on_message(Context& ctx, ProcessId from,
                             const BufferSlice& bytes) {
    if (phase_ == Phase::done) return;
    if (!is_ctrl(bytes)) return;
    try {
        handle_ctrl(ctx, from, bytes);
    } catch (const codec::DecodeError&) {
        // Malformed control traffic: drop (same policy as protocols).
    }
}

void Coordinator::handle_ctrl(Context& ctx, ProcessId from,
                              const BufferSlice& bytes) {
    codec::EnvelopeView env(bytes);
    switch (static_cast<CtrlMsgType>(env.type)) {
        case CtrlMsgType::ready: {
            ReadyMsg::decode(env.body);
            ready_.insert(from);
            if (phase_ == Phase::wait_ready &&
                static_cast<int>(ready_.size()) == participants_) {
                broadcast(ctx,
                          encode_ctrl(CtrlMsgType::run_spec, cfg_.spec));
                phase_ = Phase::wait_spec_ok;
            } else if (phase_ != Phase::wait_ready) {
                // A READY after the spec went out is a crashed node
                // rejoining mid-run: re-send the spec so it rebuilds its
                // stack (its duplicate SPEC_OK folds into the set; replicas
                // serve continuously and never need a START).
                ctx.send(from, encode_ctrl(CtrlMsgType::run_spec, cfg_.spec));
            }
            return;
        }
        case CtrlMsgType::spec_ok: {
            spec_ok_.insert(from);
            if (phase_ == Phase::wait_spec_ok &&
                static_cast<int>(spec_ok_.size()) == participants_) {
                StartMsg start;
                if (cfg_.shared_epoch) {
                    start.window_open = ctx.now() + cfg_.spec.warmup;
                    start.window_close = start.window_open + cfg_.spec.measure;
                }
                window_open_ = start.window_open;
                window_close_ = start.window_close;
                broadcast(ctx, encode_ctrl(CtrlMsgType::start, start));
                phase_ = Phase::measuring;
            }
            return;
        }
        case CtrlMsgType::sample: {
            const SampleMsg msg = SampleMsg::decode(env.body);
            for (const Duration d : msg.latencies_ns) merged_.record(d);
            samples_streamed_ += msg.latencies_ns.size();
            return;
        }
        case CtrlMsgType::driver_done: {
            driver_done_[from] = DriverDoneMsg::decode(env.body);
            if (phase_ == Phase::measuring &&
                static_cast<int>(driver_done_.size()) == drivers_) {
                phase_ = Phase::quiescing;
                quiesce_until_ = ctx.now() + cfg_.quiesce;
                // Every window is closed: stop the load, so the replicas
                // converge on one final sequence per group instead of
                // answering REPORT a few deliveries apart.
                const Buffer stop = encode_ctrl(CtrlMsgType::stop_load);
                for (int d = 0; d < drivers_; ++d)
                    ctx.send(topo_.client(d), stop);
            }
            return;
        }
        case CtrlMsgType::replica_done: {
            if (phase_ != Phase::reporting) return;
            replica_done_[from] = ReplicaDoneMsg::decode(env.body);
            if (static_cast<int>(replica_done_.size()) ==
                topo_.num_replicas()) {
                std::string why;
                if (validate_groups(&why)) {
                    finish(ctx);
                } else if (report_attempts_made_ >= cfg_.report_attempts) {
                    fail(ctx, "delivery-sequence check failed: " + why);
                } else {
                    // Replicas may still be converging on the tail of the
                    // run; poll again.
                    replica_done_.clear();
                    next_report_at_ = ctx.now() + cfg_.report_retry;
                }
            }
            return;
        }
        default:
            return;  // not addressed to the coordinator
    }
}

void Coordinator::on_timer(Context& ctx, TimerId id) {
    if (id != tick_timer_ || phase_ == Phase::done) return;
    tick_timer_ = ctx.set_timer(tick_interval);
    if (ctx.now() - started_at_ > cfg_.deadline) {
        const char* phase =
            phase_ == Phase::wait_ready      ? "waiting for READY"
            : phase_ == Phase::wait_spec_ok  ? "waiting for SPEC_OK"
            : phase_ == Phase::measuring     ? "measuring"
            : phase_ == Phase::quiescing     ? "quiescing"
                                             : "collecting replica digests";
        fail(ctx, std::string("deadline exceeded while ") + phase);
        return;
    }
    if (phase_ == Phase::quiescing && ctx.now() >= quiesce_until_) {
        phase_ = Phase::reporting;
        send_report(ctx);
        return;
    }
    if (phase_ == Phase::reporting && next_report_at_ != 0 &&
        ctx.now() >= next_report_at_) {
        send_report(ctx);
    }
}

void Coordinator::send_report(Context& ctx) {
    ++report_attempts_made_;
    next_report_at_ = 0;
    const Buffer wire = encode_ctrl(CtrlMsgType::report);
    for (ProcessId p = 0; p < topo_.num_replicas(); ++p) ctx.send(p, wire);
}

bool Coordinator::validate_groups(std::string* why) const {
    for (GroupId g = 0; g < topo_.num_groups(); ++g) {
        const auto& members = topo_.members(g);
        const auto& first = replica_done_.at(members.front());
        for (const ProcessId p : members) {
            const auto& done = replica_done_.at(p);
            if (done.delivered != first.delivered ||
                done.digest != first.digest ||
                done.app_hash != first.app_hash) {
                if (why != nullptr)
                    *why = "group " + std::to_string(g) +
                           ": replica p" + std::to_string(p) + " delivered " +
                           std::to_string(done.delivered) +
                           " vs p" + std::to_string(members.front()) + "'s " +
                           std::to_string(first.delivered) +
                           " (or diverging order/app digests)";
                return false;
            }
        }
        if (first.delivered == 0) {
            if (why != nullptr)
                *why = "group " + std::to_string(g) + " delivered nothing";
            return false;
        }
    }
    // Every op went to every group: the groups must also agree with each
    // other, on one order of the same ops.
    if (cfg_.spec.workload != WorkloadKind::bytes ||
        static_cast<int>(cfg_.spec.dest_groups) < topo_.num_groups())
        return true;
    const ProcessId p0 = topo_.members(0).front();
    const auto& first = replica_done_.at(p0);
    for (GroupId g = 1; g < topo_.num_groups(); ++g) {
        const ProcessId p = topo_.members(g).front();
        const auto& done = replica_done_.at(p);
        if (done.delivered != first.delivered || done.digest != first.digest) {
            if (why != nullptr)
                *why = "group " + std::to_string(g) + " delivered " +
                       std::to_string(done.delivered) + " vs group 0's " +
                       std::to_string(first.delivered) +
                       " (or in another order), though every op went to "
                       "every group";
            return false;
        }
    }
    return true;
}

void Coordinator::finish(Context& ctx) {
    phase_ = Phase::done;
    ok_ = true;
    broadcast(ctx, encode_ctrl(CtrlMsgType::shutdown));
    finished_.store(true);
}

obs::MetricsSnapshot Coordinator::merged_metrics() const {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, stats::Histogram> histograms;
    for (const auto& [pid, done] : replica_done_) {
        for (const auto& [name, v] : done.metrics.counters) counters[name] += v;
        for (const auto& [name, h] : done.metrics.histograms) {
            const auto [it, fresh] = histograms.try_emplace(name, h);
            if (!fresh) it->second.merge(h);
        }
    }
    obs::MetricsSnapshot out;
    out.counters.assign(counters.begin(), counters.end());
    out.histograms.assign(histograms.begin(), histograms.end());
    return out;
}

void Coordinator::fail(Context& ctx, const std::string& why) {
    phase_ = Phase::done;
    ok_ = false;
    error_ = why;
    broadcast(ctx, encode_ctrl(CtrlMsgType::shutdown));
    finished_.store(true);
}

harness::FigPoint Coordinator::result_point() const {
    harness::FigPoint pt;
    pt.clients = drivers_ * static_cast<int>(cfg_.spec.sessions);
    Duration window = 0;
    for (const auto& [pid, done] : driver_done_) {
        pt.ops += done.completed_in_window;
        window += done.window_ns;
    }
    if (!driver_done_.empty())
        window /= static_cast<Duration>(driver_done_.size());
    const double window_s = to_secs(window);
    pt.throughput_ops_s =
        window_s > 0 ? static_cast<double>(pt.ops) / window_s : 0;
    pt.mean_ms = merged_.mean() / 1e6;
    pt.p50_ms = to_millis(merged_.percentile(0.50));
    pt.p99_ms = to_millis(merged_.percentile(0.99));
    return pt;
}

RunResult Coordinator::result() const {
    RunResult r;
    r.ok = ok_;
    r.error = error_;
    r.point = result_point();
    r.drivers = drivers_;
    r.samples_streamed = samples_streamed_;
    if (ok_) {
        // validate_groups passed: every member matches the first.
        for (GroupId g = 0; g < topo_.num_groups(); ++g) {
            const ReplicaDoneMsg& done =
                replica_done_.at(topo_.members(g).front());
            r.groups.push_back({done.delivered, done.digest, done.app_hash});
        }
    }
    return r;
}

}  // namespace wbam::ctrl
