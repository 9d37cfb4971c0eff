// wbamd/wbamctl bootstrap: the node daemon's command line, the topology
// file that seats every process on the benchmark plane, and the NetConfig
// both binaries derive from it. Factored out of examples/ so that
// deployment-driver-generated configurations are validated at the unit
// level (tests/bootstrap_test.cpp) — a malformed flag or topology file
// must be rejected here, not discovered as a hung cluster.
#ifndef WBAM_HARNESS_BOOTSTRAP_HPP
#define WBAM_HARNESS_BOOTSTRAP_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "harness/topology_spec.hpp"
#include "net/address.hpp"
#include "net/world.hpp"

namespace wbam::harness {

struct NodeOptions {
    ProcessId pid = invalid_process;
    std::string topology_file;
    // Shared steady-clock epoch (nanoseconds since CLOCK_MONOTONIC zero) of
    // a single-machine deployment; 0 = per-process epoch.
    std::int64_t epoch_ns = 0;
    // Transport event-loop shard count (net::NetConfig::shards):
    // 0 = auto (hardware concurrency).
    int net_shards = 0;
    int run_ms = 6000;
    // Durability: directory for this replica's write-ahead log (empty =
    // volatile). A restarted replica replays <wal_dir>/p<pid>.wal and
    // rejoins with its pre-crash state. `wal_sync` is the fsync policy:
    // "off", "group" (one fsync per handler batch) or "always".
    std::string wal_dir;
    std::string wal_sync = "group";
    // Observability: path for the process's metrics dump. When set, wbamd
    // appends one JSON line per --metrics-interval-ms with the delta since
    // the previous line, writes a full snapshot at exit, and re-dumps on
    // SIGUSR1 (docs/OBSERVABILITY.md).
    std::string metrics_dump;
    int metrics_interval_ms = 1000;
    bool verbose = false;
};

// Parses wbamd's argv; --pid and --topology are required. On error returns
// nullopt and fills `error` (when non-null) with a one-line diagnostic.
// Validation here covers flag syntax and basic ranges; the pid is checked
// against the topology in resolve_bootstrap once the file is loaded.
std::optional<NodeOptions> parse_node_args(int argc, const char* const* argv,
                                           std::string* error = nullptr);

// A topology file seated for the benchmark plane: replica pids run behind
// ctrl::NodeShim, every client pid but the last runs a ctrl::BenchDriver,
// and the last client pid is the `wbamctl run` coordinator.
struct Bootstrap {
    TopologySpec spec;
    Topology topo;
    net::ClusterMap map;
    ProcessId coordinator = invalid_process;
};

// Loads the topology file and checks that it seats at least one driver
// besides the coordinator (>= 2 client pids).
std::optional<Bootstrap> load_bench_topology(const std::string& path,
                                             std::string* error = nullptr);

// load_bench_topology(o.topology_file), plus: the pid is inside the
// topology and is not the coordinator's seat.
std::optional<Bootstrap> resolve_bootstrap(const NodeOptions& o,
                                           std::string* error = nullptr);

// The NetConfig of the process listening at `self`. Loopback endpoints
// keep the 127.0.0.1 bind; anything else (netns mesh addresses, real NICs,
// hostnames) binds the wildcard so the listener is reachable on whatever
// address peers dial. epoch_ns > 0 pins the shared clock epoch.
net::NetConfig node_net_config(const net::Endpoint& self,
                               std::int64_t epoch_ns, int net_shards);

}  // namespace wbam::harness

#endif  // WBAM_HARNESS_BOOTSTRAP_HPP
