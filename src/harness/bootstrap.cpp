#include "harness/bootstrap.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "wal/log.hpp"

namespace wbam::harness {

namespace {

const char* flag_value(const char* arg, const char* name) {
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
    return nullptr;
}

bool parse_number(const char* s, long long* out) {
    if (*s == '\0') return false;
    char* end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (end == nullptr || *end != '\0') return false;
    *out = v;
    return true;
}

bool set_error(std::string* error, std::string what) {
    if (error != nullptr) *error = std::move(what);
    return false;
}

}  // namespace

std::optional<NodeOptions> parse_node_args(int argc, const char* const* argv,
                                           std::string* error) {
    NodeOptions o;
    auto bad = [&](const std::string& what) -> std::optional<NodeOptions> {
        set_error(error, what);
        return std::nullopt;
    };
    for (int i = 1; i < argc; ++i) {
        const char* v = nullptr;
        long long n = 0;
        auto int_flag = [&](const char* name, long long min, long long max,
                            auto assign) -> int {
            if ((v = flag_value(argv[i], name)) == nullptr) return 0;
            if (!parse_number(v, &n) || n < min || n > max) return -1;
            assign(n);
            return 1;
        };
        int r = 0;
        if ((r = int_flag("--pid", 0, 1 << 20,
                          [&](long long x) { o.pid = static_cast<ProcessId>(x); })) != 0) {
        } else if ((r = int_flag("--run-ms", 1, 86'400'000,
                                 [&](long long x) { o.run_ms = static_cast<int>(x); })) != 0) {
        } else if ((r = int_flag("--epoch-ns", 0, std::int64_t{1} << 62,
                                 [&](long long x) { o.epoch_ns = x; })) != 0) {
        } else if ((v = flag_value(argv[i], "--topology"))) {
            o.topology_file = v;
        } else if ((v = flag_value(argv[i], "--metrics-dump"))) {
            o.metrics_dump = v;
        } else if ((r = int_flag("--metrics-interval-ms", 10, 3'600'000,
                                 [&](long long x) {
                                     o.metrics_interval_ms =
                                         static_cast<int>(x);
                                 })) != 0) {
        } else if ((v = flag_value(argv[i], "--wal-dir"))) {
            o.wal_dir = v;
        } else if ((v = flag_value(argv[i], "--wal-sync"))) {
            if (!wal::parse_sync_mode(v))
                return bad(std::string("unknown --wal-sync=") + v +
                           " (off|group|always)");
            o.wal_sync = v;
        } else if (std::strcmp(argv[i], "-v") == 0) {
            o.verbose = true;
        } else {
            return bad(std::string("unknown argument: ") + argv[i]);
        }
        if (r < 0)
            return bad(std::string("bad value in ") + argv[i]);
    }
    if (o.pid == invalid_process)
        return bad("--pid is required");
    if (o.topology_file.empty())
        return bad("--topology is required");
    return o;
}

std::optional<Bootstrap> load_bench_topology(const std::string& path,
                                             std::string* error) {
    auto spec = TopologySpec::load(path, error);
    if (!spec) return std::nullopt;
    if (spec->clients < 2) {
        set_error(error, path +
                             ": topology needs >= 2 client pids (drivers + "
                             "the coordinator seat)");
        return std::nullopt;
    }
    Bootstrap b;
    b.topo = spec->topology();
    b.map = spec->cluster_map();
    b.coordinator = b.topo.client(b.topo.num_clients() - 1);
    b.spec = std::move(*spec);
    return b;
}

std::optional<Bootstrap> resolve_bootstrap(const NodeOptions& o,
                                           std::string* error) {
    auto b = load_bench_topology(o.topology_file, error);
    if (!b) return std::nullopt;
    if (o.pid < 0 || o.pid >= b->topo.num_processes()) {
        set_error(error, "--pid=" + std::to_string(o.pid) +
                             " outside the " +
                             std::to_string(b->topo.num_processes()) +
                             "-process topology");
        return std::nullopt;
    }
    if (o.pid == b->coordinator) {
        set_error(error, "pid " + std::to_string(o.pid) +
                             " is the coordinator seat: run 'wbamctl run' "
                             "there instead");
        return std::nullopt;
    }
    return b;
}

net::NetConfig node_net_config(const net::Endpoint& self,
                               std::int64_t epoch_ns) {
    net::NetConfig cfg;
    if (self.host != "127.0.0.1") cfg.bind_host = "0.0.0.0";
    if (epoch_ns > 0)
        cfg.epoch = std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::nanoseconds(epoch_ns)));
    return cfg;
}

}  // namespace wbam::harness
