#include "harness/live_cluster.hpp"

#include <chrono>
#include <thread>

#include "common/assert.hpp"

namespace wbam::harness {

std::vector<std::unique_ptr<net::NetWorld>> make_loopback_worlds(
    const Topology& topo, std::uint64_t seed,
    const std::function<std::unique_ptr<Process>(ProcessId)>& factory,
    net::NetConfig base) {
    // One shared epoch: latencies measured across worlds stay coherent.
    if (base.epoch == std::chrono::steady_clock::time_point{})
        base.epoch = std::chrono::steady_clock::now();
    std::vector<std::unique_ptr<net::NetWorld>> worlds;
    worlds.reserve(static_cast<std::size_t>(topo.num_processes()));
    for (ProcessId p = 0; p < topo.num_processes(); ++p) {
        auto world = std::make_unique<net::NetWorld>(
            topo, seed + static_cast<std::uint64_t>(p) * 7919, base);
        world->add_process(p, factory(p), /*listen_port=*/0);
        worlds.push_back(std::move(world));
    }
    // Ephemeral ports are known only after binding: exchange them now.
    net::ClusterMap map;
    map.endpoints.resize(static_cast<std::size_t>(topo.num_processes()));
    for (ProcessId p = 0; p < topo.num_processes(); ++p)
        map.endpoints[static_cast<std::size_t>(p)] = net::Endpoint{
            "127.0.0.1", worlds[static_cast<std::size_t>(p)]->port_of(p)};
    for (auto& world : worlds) world->set_cluster(map);
    return worlds;
}

LiveCluster::LiveCluster(LiveClusterConfig cfg)
    : cfg_(std::move(cfg)),
      topo_(cfg_.groups, cfg_.group_size, cfg_.clients,
            cfg_.staggered_leaders),
      next_seq_(static_cast<std::size_t>(topo_.num_processes()), 0) {
    // The delivery sink runs on replica loops: the log is the one
    // shared structure, guarded by log_mutex_.
    const bool send_acks = cfg_.send_acks;
    const Topology topo = topo_;
    DeliverySink sink = [this, topo, send_acks](Context& ctx, GroupId group,
                                                const AppMessage& m) {
        {
            const std::lock_guard<std::mutex> guard(log_mutex_);
            log_.note_delivery(ctx.now(), ctx.self(), group, m);
        }
        if (!send_acks) return;
        const ProcessId origin = msg_id_client(m.id);
        if (topo.is_client(origin))
            ctx.send(origin, encode_deliver_ack(group, m.id));
    };

    auto factory = [&](ProcessId p) -> std::unique_ptr<Process> {
        if (topo_.is_replica(p))
            return make_replica(cfg_.kind, topo_, p, sink, cfg_.replica);
        // The multicast itself is recorded by LiveCluster::multicast before
        // it is posted (under the log lock), so the client's hook is empty.
        auto client = std::make_unique<ScriptedClient>(
            topo_, ScriptedClient::MulticastHook{}, cfg_.client_retry);
        clients_.push_back(client.get());
        return client;
    };

    nets_ = make_loopback_worlds(topo_, cfg_.seed, factory, cfg_.net);
    for (auto& world : nets_) world->start();
    running_ = true;
}

LiveCluster::~LiveCluster() { shutdown(); }

void LiveCluster::shutdown() {
    if (!running_) return;
    running_ = false;
    for (auto& world : nets_) world->shutdown();
}

void LiveCluster::run_on(ProcessId pid, std::function<void(Context&)> fn) {
    nets_[static_cast<std::size_t>(pid)]->run_on(pid, std::move(fn));
}

MsgId LiveCluster::multicast(int client_idx, std::vector<GroupId> dests,
                             BufferSlice payload) {
    WBAM_ASSERT(client_idx >= 0 &&
                static_cast<std::size_t>(client_idx) < clients_.size());
    const ProcessId pid = topo_.client(client_idx);
    const MsgId id =
        make_msg_id(pid, next_seq_[static_cast<std::size_t>(pid)]++);
    AppMessage m = make_app_message(id, std::move(dests), std::move(payload));
    {
        // Recorded before the client can possibly send it: note_multicast
        // must precede every note_delivery of m.
        const std::lock_guard<std::mutex> guard(log_mutex_);
        log_.note_multicast(nets_.front()->now(), pid, m);
        ++issued_;
    }
    ScriptedClient* client = clients_[static_cast<std::size_t>(client_idx)];
    run_on(pid, [client, m = std::move(m)](Context&) { client->multicast(m); });
    return id;
}

bool LiveCluster::await_completion(Duration timeout) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout);
    for (;;) {
        {
            const std::lock_guard<std::mutex> guard(log_mutex_);
            if (log_.completed_count() == issued_) return true;
        }
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

DeliveryLog LiveCluster::log_snapshot() const {
    const std::lock_guard<std::mutex> guard(log_mutex_);
    return log_;
}

std::size_t LiveCluster::issued() const {
    const std::lock_guard<std::mutex> guard(log_mutex_);
    return issued_;
}

CheckResult LiveCluster::check(bool check_termination) const {
    const DeliveryLog log = log_snapshot();
    CheckOptions opts;
    opts.correct.assign(static_cast<std::size_t>(topo_.num_processes()), true);
    opts.check_termination = check_termination;
    return check_multicast_properties(log, topo_, opts);
}

void LiveCluster::drop_net_connections() {
    for (auto& world : nets_) world->drop_connections();
}

}  // namespace wbam::harness
