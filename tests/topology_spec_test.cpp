// Topology-file parsing (harness::TopologySpec): duration syntax, full
// parse/format round-trips, a malformed-input rejection table, and the
// derived artefacts — ClusterMap endpoints and the sim LinkMatrixDelay
// whose directed (possibly asymmetric) one-way delays must mirror the
// file's owd matrix exactly.
#include <gtest/gtest.h>

#include "harness/topology_spec.hpp"

namespace wbam {
namespace {

using harness::TopologySpec;
using harness::format_duration;
using harness::parse_duration;

TEST(DurationParseTest, UnitsAndDecimals) {
    EXPECT_EQ(parse_duration("150"), nanoseconds(150));
    EXPECT_EQ(parse_duration("150ns"), nanoseconds(150));
    EXPECT_EQ(parse_duration("40us"), microseconds(40));
    EXPECT_EQ(parse_duration("20ms"), milliseconds(20));
    EXPECT_EQ(parse_duration("2s"), seconds(2));
    EXPECT_EQ(parse_duration("0.1ms"), microseconds(100));
    EXPECT_EQ(parse_duration("1.5s"), milliseconds(1500));
    EXPECT_EQ(parse_duration("0"), nanoseconds(0));
}

TEST(DurationParseTest, RejectsMalformed) {
    for (const char* bad : {"", "ms", "20 ms", "20mss", "-5ms", "1.2.3ms",
                            ".", "20m", "1e3ns", "abc"}) {
        EXPECT_FALSE(parse_duration(bad).has_value()) << "'" << bad << "'";
    }
}

TEST(DurationParseTest, FormatRoundTrips) {
    for (const Duration d : {nanoseconds(17), microseconds(40),
                             milliseconds(20), milliseconds(1500),
                             seconds(2), nanoseconds(0)}) {
        EXPECT_EQ(parse_duration(format_duration(d)), d) << d;
    }
}

TopologySpec grouped_fixture() {
    // 2x3 replicas + 2 drivers + coordinator across 2 regions, 20 ms
    // cross-region, 100 us local — the CI emulated-WAN shape.
    return TopologySpec::make_grouped(2, 3, 3, 2, microseconds(100),
                                      milliseconds(20), 7100);
}

TEST(TopologySpecTest, FormatParseRoundTrip) {
    const TopologySpec spec = grouped_fixture();
    std::string error;
    const auto parsed = TopologySpec::parse(spec.format(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->groups, 2);
    EXPECT_EQ(parsed->group_size, 3);
    EXPECT_EQ(parsed->clients, 3);
    EXPECT_EQ(parsed->regions, 2);
    EXPECT_EQ(parsed->num_processes(), 9);
    EXPECT_EQ(parsed->owd, spec.owd);
    EXPECT_EQ(parsed->region_of, spec.region_of);
    for (int p = 0; p < spec.num_processes(); ++p) {
        EXPECT_EQ(parsed->endpoints[static_cast<std::size_t>(p)].port,
                  7100 + p);
        EXPECT_EQ(parsed->endpoints[static_cast<std::size_t>(p)].host,
                  "127.0.0.1");
    }
    // format is canonical: round-tripping the round-trip is identical.
    EXPECT_EQ(parsed->format(), spec.format());
}

TEST(TopologySpecTest, GroupedRegionAssignment) {
    const TopologySpec spec = grouped_fixture();
    const Topology topo = spec.topology();
    for (ProcessId p = 0; p < topo.num_replicas(); ++p)
        EXPECT_EQ(spec.region_of[static_cast<std::size_t>(p)],
                  topo.group_of(p) % 2);
    // Clients round-robin across regions.
    EXPECT_EQ(spec.region_of[static_cast<std::size_t>(topo.client(0))], 0);
    EXPECT_EQ(spec.region_of[static_cast<std::size_t>(topo.client(1))], 1);
}

TEST(TopologySpecTest, AsymmetricLinkMatrixDrivesTheSim) {
    TopologySpec spec = grouped_fixture();
    // FlexCast-style asymmetry: 20 ms one way, 35 ms the other.
    spec.owd[0][1] = milliseconds(20);
    spec.owd[1][0] = milliseconds(35);
    const auto model = spec.delay_model();
    Rng rng(7);
    const Topology topo = spec.topology();
    const ProcessId in_g0 = topo.member(0, 0);  // region 0
    const ProcessId in_g1 = topo.member(1, 0);  // region 1
    EXPECT_EQ(model->sample(in_g0, in_g1, 100, rng), milliseconds(20));
    EXPECT_EQ(model->sample(in_g1, in_g0, 100, rng), milliseconds(35));
    EXPECT_EQ(model->sample(in_g0, topo.member(0, 1), 100, rng),
              microseconds(100));
}

TEST(TopologySpecTest, ClusterMapMatchesEndpoints) {
    const TopologySpec spec = grouped_fixture();
    const net::ClusterMap map = spec.cluster_map();
    ASSERT_EQ(map.endpoints.size(), 9u);
    EXPECT_EQ(map.of(4).port, 7104);
    EXPECT_EQ(net::format_cluster(map),
              net::format_cluster(*net::parse_cluster(
                  net::format_cluster(map))));
}

TEST(TopologySpecTest, MalformedInputsRejected) {
    const TopologySpec good = grouped_fixture();
    const std::string base = good.format();
    const std::string two_nodes =
        "node 0 region 0 addr h:1\nnode 1 region 0 addr h:2\n";
    const struct {
        const char* name;
        std::string text;
    } cases[] = {
        {"empty", ""},
        {"missing header", "groups 2\n"},
        {"bad header version", "wbam-topology v9\ngroups 2\n"},
        {"unknown directive", base + "flux_capacitor 1\n"},
        {"even group size",
         "wbam-topology v1\ngroups 1\ngroup_size 2\nclients 1\nregions 1\n"
         "node 0 region 0 addr h:1\nnode 1 region 0 addr h:2\n"
         "node 2 region 0 addr h:3\n"},
        {"owd region out of range", base + "owd 0 7 1ms\n"},
        // Growing the shape after the owd/node tables were sized would
        // leave them undersized (and the later pids out of bounds).
        {"count grows after node lines", base + "clients 5\n"},
        {"pid beyond original shape",
         "wbam-topology v1\ngroups 1\ngroup_size 1\nclients 0\nregions 1\n"
         "owd 0 0 1ms\nclients 2\nnode 2 region 0 addr h:8\n"},
        {"owd before shape",
         "wbam-topology v1\nowd 0 0 1ms\ngroups 2\ngroup_size 3\n"},
        {"node pid out of range", base + "node 99 region 0 addr h:1\n"},
        {"node region out of range", base + "node 0 region 9 addr h:1\n"},
        {"duplicate node", base + "node 0 region 0 addr h:1\n"},
        {"bad node address",
         [&] {
             std::string t = base;
             const auto at = t.find("addr 127.0.0.1:7100");
             return t.replace(at, 19, "addr no-port-here--");
         }()},
        {"bad duration", [&] {
             std::string t = base;
             const auto at = t.find("20ms");
             return t.replace(at, 4, "20xx");
         }()},
        {"missing node line", [&] {
             std::string t = base;
             const auto at = t.find("node 8");
             return t.substr(0, at);
         }()},
        // Counts are bounded before any table is sized from them, and the
        // process count cannot wrap around.
        // 1431655766 x 3 = 2^32 + 2: an int process count reads 2.
        {"process count wraps around",
         "wbam-topology v1\ngroups 1431655766\ngroup_size 3\nclients 0\n"
         "regions 1\n" + two_nodes},
        // 2^32 + 2 truncated to int is 2.
        {"groups truncated by the int cast",
         "wbam-topology v1\ngroups 4294967298\ngroup_size 1\nclients 0\n"
         "regions 1\n" + two_nodes},
        {"groups above 4096",
         "wbam-topology v1\ngroups 4097\ngroup_size 1\nclients 0\n"
         "regions 1\n"},
        {"group_size above 99",
         "wbam-topology v1\ngroups 1\ngroup_size 101\nclients 0\n"
         "regions 1\n"},
        {"clients above 2^20",
         "wbam-topology v1\ngroups 1\ngroup_size 1\nclients 1048577\n"
         "regions 1\n"},
        {"regions above the process count",
         "wbam-topology v1\ngroups 1\ngroup_size 1\nclients 1\n"
         "regions 3\nowd 2 2 1ms\n" + two_nodes},
        {"regions above the process count, no owd line",
         "wbam-topology v1\ngroups 1\ngroup_size 1\nclients 1\n"
         "regions 3\n" + two_nodes},
        {"regions above 1024",
         "wbam-topology v1\ngroups 4096\ngroup_size 1\nclients 0\n"
         "regions 1025\n"},
    };
    for (const auto& c : cases) {
        std::string error;
        EXPECT_FALSE(TopologySpec::parse(c.text, &error).has_value())
            << c.name << " was accepted";
        EXPECT_FALSE(error.empty()) << c.name << " gave no diagnostic";
    }
}

TEST(TopologySpecTest, CommentsAndBlankLinesIgnored) {
    const std::string text =
        "# a deployment\nwbam-topology v1\n\ngroups 1  # one group\n"
        "group_size 1\nclients 1\nregions 1\nowd 0 0 1ms\n"
        "node 0 region 0 addr a:1\nnode 1 region 0 addr b:2\n";
    std::string error;
    const auto spec = TopologySpec::parse(text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->endpoints[1].host, "b");
    EXPECT_EQ(spec->owd[0][0], milliseconds(1));
}

}  // namespace
}  // namespace wbam
