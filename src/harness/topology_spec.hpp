// Deployment topology descriptions: one file names the process layout
// (groups x group_size + clients), a region for every process, the
// directed one-way latency of every region pair, and the host:port
// endpoint of every process. The SAME file drives all runtimes:
//
//   * net     — endpoints() yields the net::ClusterMap the TCP runtime
//               dials; scripts/wbam_deploy.py reads the region/owd lines
//               to program `tc netem` per directed link (netns mode) or
//               to pick launch hosts (ssh mode).
//   * sim     — delay_model() yields a sim::LinkMatrixDelay with exactly
//               the owd matrix netem would shape, so a simulated run of a
//               topology file predicts its emulated-WAN twin.
//
// File format (line-oriented; '#' starts a comment; see docs/DEPLOYMENT.md):
//
//   wbam-topology v1
//   groups 2
//   group_size 3
//   clients 3                  # driver processes + 1 coordinator (last pid)
//   staggered_leaders 0
//   regions 2
//   jitter_frac 0.02           # optional, sim only
//   owd 0 1 20ms               # one-way delay region 0 -> region 1
//   owd 1 0 25ms               # may be asymmetric
//   node 0 region 0 addr 10.231.0.1:7000
//   ...one node line per ProcessId, in id order...
#ifndef WBAM_HARNESS_TOPOLOGY_SPEC_HPP
#define WBAM_HARNESS_TOPOLOGY_SPEC_HPP

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "common/topology.hpp"
#include "net/address.hpp"
#include "sim/network.hpp"

namespace wbam::harness {

// Parses "150", "150ns", "40us", "0.1ms", "20ms", "2s" into nanoseconds.
// Bare numbers are nanoseconds. Returns nullopt on anything else.
std::optional<Duration> parse_duration(std::string_view s);
// Shortest exact spelling of d ("20ms", "1500us", "2s", "17ns").
std::string format_duration(Duration d);

struct TopologySpec {
    // parse() rejects counts above these, so num_processes() fits an int
    // and a hostile file cannot size its tables past them.
    static constexpr int max_groups = 4096;
    static constexpr int max_group_size = 99;
    static constexpr int max_clients = 1 << 20;
    // The owd table is regions x regions; parse() also caps regions at
    // the process count (a region without a process shapes nothing).
    static constexpr int max_regions = 1024;

    int groups = 0;
    int group_size = 0;
    int clients = 0;
    bool staggered_leaders = false;
    int regions = 1;
    double jitter_frac = 0.0;
    // owd[a][b]: one-way delay from region a to region b (diagonal =
    // intra-region). Defaults to 0 everywhere.
    std::vector<std::vector<Duration>> owd;
    // Indexed by ProcessId, size num_processes().
    std::vector<int> region_of;
    std::vector<net::Endpoint> endpoints;

    int num_processes() const { return groups * group_size + clients; }

    Topology topology() const {
        return Topology(groups, group_size, clients, staggered_leaders);
    }
    net::ClusterMap cluster_map() const { return net::ClusterMap{endpoints}; }
    std::unique_ptr<sim::LinkMatrixDelay> delay_model() const {
        return std::make_unique<sim::LinkMatrixDelay>(region_of, owd,
                                                      jitter_frac);
    }

    // Parses the file format above. On failure returns nullopt and, when
    // `error` is non-null, a one-line diagnostic naming the bad line.
    static std::optional<TopologySpec> parse(std::string_view text,
                                             std::string* error = nullptr);
    static std::optional<TopologySpec> load(const std::string& path,
                                            std::string* error = nullptr);

    // Inverse of parse: format() output round-trips exactly.
    std::string format() const;
    bool save(const std::string& path) const;

    // Convenience builder: loopback endpoints (base_port + pid), replicas
    // assigned region group_of(p) % regions, clients round-robin; owd
    // matrix = `local` on the diagonal and `cross` elsewhere.
    static TopologySpec make_grouped(int groups, int group_size, int clients,
                                     int regions, Duration local,
                                     Duration cross,
                                     std::uint16_t base_port = 7000);
};

static_assert(std::int64_t{TopologySpec::max_groups} *
                      TopologySpec::max_group_size +
                  TopologySpec::max_clients <=
              std::numeric_limits<int>::max());

}  // namespace wbam::harness

#endif  // WBAM_HARNESS_TOPOLOGY_SPEC_HPP
