// wbamd/wbamctl bootstrap validation (harness/bootstrap.hpp): argv
// parsing with a malformed-input rejection table (including every flag of
// the retired self-driving mode, so a stale launcher fails loudly), the
// topology-file resolution and its pid/seat checks, the NetConfig both
// binaries derive, and the parse_cluster/format_cluster round-trip — the
// unit-level guarantee that deployment-driver-generated configurations
// are validated before any socket is opened.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bootstrap.hpp"

namespace wbam {
namespace {

using harness::Bootstrap;
using harness::NodeOptions;
using harness::parse_node_args;
using harness::resolve_bootstrap;

std::optional<NodeOptions> parse(std::vector<const char*> args,
                                 std::string* error = nullptr) {
    args.insert(args.begin(), "wbamd");
    return parse_node_args(static_cast<int>(args.size()), args.data(), error);
}

// A saved 2x3 topology with 3 client pids (2 drivers + the coordinator at
// pid 8), endpoints 127.0.0.1:7200+pid; removed with the fixture.
class TopologyFile {
public:
    explicit TopologyFile(const harness::TopologySpec& spec,
                          const char* name = "bootstrap_topo.txt")
        : path_(testing::TempDir() + "/" + name) {
        EXPECT_TRUE(spec.save(path_));
    }
    TopologyFile()
        : TopologyFile(harness::TopologySpec::make_grouped(
              2, 3, 3, 2, microseconds(100), milliseconds(20), 7200)) {}
    ~TopologyFile() { std::remove(path_.c_str()); }

    const std::string& path() const { return path_; }

private:
    std::string path_;
};

TEST(BootstrapArgsTest, FullFlagSetParses) {
    const auto o = parse({"--pid=7", "--topology=/tmp/t.topo",
                          "--epoch-ns=123456789", "--net-shards=4",
                          "--run-ms=1234", "--wal-dir=/tmp/wal", "--wal-sync=always",
                          "--metrics-dump=/tmp/m.jsonl",
                          "--metrics-interval-ms=250", "-v"});
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->pid, 7);
    EXPECT_EQ(o->topology_file, "/tmp/t.topo");
    EXPECT_EQ(o->epoch_ns, 123456789);
    EXPECT_EQ(o->net_shards, 4);
    EXPECT_EQ(o->run_ms, 1234);
    EXPECT_EQ(o->wal_dir, "/tmp/wal");
    EXPECT_EQ(o->wal_sync, "always");
    EXPECT_EQ(o->metrics_dump, "/tmp/m.jsonl");
    EXPECT_EQ(o->metrics_interval_ms, 250);
    EXPECT_TRUE(o->verbose);
}

TEST(BootstrapArgsTest, MalformedArgsRejected) {
    const struct {
        const char* name;
        std::vector<const char*> args;
    } cases[] = {
        {"no pid", {"--topology=t"}},
        {"no topology", {"--pid=0"}},
        {"unknown flag", {"--pid=0", "--topology=t", "--frobnicate=1"}},
        {"non-numeric pid", {"--pid=zero", "--topology=t"}},
        {"negative pid", {"--pid=-3", "--topology=t"}},
        {"bad run-ms", {"--pid=0", "--topology=t", "--run-ms=0"}},
        {"trailing junk", {"--pid=0x7", "--topology=t"}},
        {"shards too many", {"--pid=0", "--topology=t", "--net-shards=65"}},
        {"unknown wal-sync", {"--pid=0", "--topology=t", "--wal-sync=maybe"}},
    };
    for (const auto& c : cases) {
        std::string error;
        EXPECT_FALSE(parse(c.args, &error).has_value())
            << c.name << " was accepted";
        EXPECT_FALSE(error.empty()) << c.name << " gave no diagnostic";
    }
}

// The self-driving mode's flags and the per-replica sequence file are
// gone: a launcher still passing one must fail at argv parsing, not run a
// silently different experiment.
TEST(BootstrapArgsTest, RemovedFlagsAreUnknownArguments) {
    for (const char* removed :
         {"--bench", "--proto=wbcast", "--msgs=25", "--payload=32",
          "--groups=2", "--group-size=3", "--clients=1", "--base-port=9000",
          "--peers=a:1,b:2", "--out=/tmp/x.txt"}) {
        std::string error;
        EXPECT_FALSE(
            parse({"--pid=0", "--topology=t", removed}, &error).has_value())
            << removed << " was accepted";
        EXPECT_NE(error.find("unknown argument"), std::string::npos)
            << removed << ": " << error;
    }
}

TEST(ClusterMapTest, ParseFormatRoundTrip) {
    const std::string spec = "10.0.0.1:7000,10.0.0.2:7001,host.example:65535";
    const auto map = net::parse_cluster(spec);
    ASSERT_TRUE(map.has_value());
    ASSERT_EQ(map->endpoints.size(), 3u);
    EXPECT_EQ(map->endpoints[0].host, "10.0.0.1");
    EXPECT_EQ(map->endpoints[2].port, 65535);
    EXPECT_EQ(net::format_cluster(*map), spec);
}

TEST(ClusterMapTest, MalformedPeerListsRejected) {
    for (const char* bad :
         {"", "hostonly", ":7000", "host:", "host:notaport", "host:70000",
          "host:7000,", "a:1,,b:2", "host:-1"}) {
        EXPECT_FALSE(net::parse_cluster(bad).has_value()) << "'" << bad << "'";
    }
}

TEST(BootstrapResolveTest, TopologyFileSuppliesShapeAndSeats) {
    const TopologyFile file;
    const std::string flag = "--topology=" + file.path();
    const auto o = parse({"--pid=7", flag.c_str()});
    ASSERT_TRUE(o.has_value());
    std::string error;
    const auto b = resolve_bootstrap(*o, &error);
    ASSERT_TRUE(b.has_value()) << error;
    EXPECT_EQ(b->topo.num_processes(), 9);
    EXPECT_EQ(b->map.of(8).port, 7208);
    EXPECT_EQ(b->spec.regions, 2);
    EXPECT_EQ(b->coordinator, 8);

    auto missing = *o;
    missing.topology_file = "/nonexistent/nope.txt";
    EXPECT_FALSE(resolve_bootstrap(missing, &error).has_value());
}

TEST(BootstrapResolveTest, RejectsOutOfTopologyPidAndCoordinatorSeat) {
    const TopologyFile file;
    const std::string flag = "--topology=" + file.path();
    std::string error;
    const auto outside = parse({"--pid=9", flag.c_str()});
    EXPECT_FALSE(resolve_bootstrap(*outside, &error).has_value());
    EXPECT_NE(error.find("outside"), std::string::npos) << error;

    const auto seat = parse({"--pid=8", flag.c_str()});
    EXPECT_FALSE(resolve_bootstrap(*seat, &error).has_value());
    EXPECT_NE(error.find("coordinator"), std::string::npos) << error;
}

TEST(BootstrapResolveTest, BenchTopologyNeedsADriverBesidesTheCoordinator) {
    const TopologyFile file(harness::TopologySpec::make_grouped(
        1, 1, 1, 1, microseconds(100), milliseconds(20), 7300));
    std::string error;
    EXPECT_FALSE(
        harness::load_bench_topology(file.path(), &error).has_value());
    EXPECT_NE(error.find(">= 2 client pids"), std::string::npos) << error;
}

TEST(NodeNetConfigTest, BindEpochAndShards) {
    const net::NetConfig loopback =
        harness::node_net_config({"127.0.0.1", 7000}, 0, 0);
    EXPECT_EQ(loopback.bind_host, "127.0.0.1");
    EXPECT_EQ(loopback.epoch, std::chrono::steady_clock::time_point{});
    EXPECT_EQ(loopback.shards, 0);

    const net::NetConfig mesh =
        harness::node_net_config({"10.231.1.1", 7000}, 5'000'000'000, 4);
    EXPECT_EQ(mesh.bind_host, "0.0.0.0");
    EXPECT_EQ(std::chrono::duration_cast<std::chrono::nanoseconds>(
                  mesh.epoch.time_since_epoch())
                  .count(),
              5'000'000'000);
    EXPECT_EQ(mesh.shards, 4);
}

}  // namespace
}  // namespace wbam
