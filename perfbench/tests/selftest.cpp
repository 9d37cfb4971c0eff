// Self-tests of the benchmark's own arithmetic: self time over nested
// spans, FIFO send/receive linkage, metric-name validity, and per-op
// ratios when a run completes zero ops.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

Span handler(std::int32_t pid, std::int64_t t0, std::int64_t t1) {
    Span s;
    s.pid = pid;
    s.kind = SpanKind::message;
    s.t0 = s.at = t0;
    s.t1 = t1;
    return s;
}

Span send(std::int32_t pid, std::int32_t to, std::int32_t parent,
          std::uint32_t seq, std::int64_t t0, std::int64_t t1) {
    Span s;
    s.pid = pid;
    s.peer = to;
    s.kind = SpanKind::send;
    s.parent = parent;
    s.channel_seq = seq;
    s.t0 = s.at = t0;
    s.t1 = t1;
    return s;
}

TEST(SelfTime, SubtractsChildrenOnce) {
    EXPECT_EQ(self_time(0, 100, {}), 100);
    EXPECT_EQ(self_time(0, 100, {{10, 20}, {30, 50}}), 70);
    // Overlapping children are covered once, not twice.
    EXPECT_EQ(self_time(0, 100, {{10, 40}, {30, 50}}), 60);
    // Nested children (a fan-out's per-recipient spans share one interval).
    EXPECT_EQ(self_time(0, 100, {{10, 40}, {10, 40}, {15, 20}}), 70);
    // Children are clipped to the parent.
    EXPECT_EQ(self_time(10, 20, {{0, 15}, {18, 30}}), 3);
    EXPECT_EQ(self_time(5, 5, {{0, 10}}), 0);
}

TEST(SelfTime, OverSpanTree) {
    std::vector<Span> spans{handler(0, 0, 100), send(0, 1, 0, 0, 10, 30),
                            send(0, 2, 0, 0, 40, 45), handler(1, 50, 80),
                            send(1, 0, 3, 0, 60, 70)};
    const auto wall = self_times(spans);
    EXPECT_EQ(wall[0], 75);
    EXPECT_EQ(wall[1], 0);  // sends carry no self time of their own
    EXPECT_EQ(wall[3], 20);
}

TEST(FifoLink, KthSendMatchesKthReceive) {
    std::vector<Span> spans;
    spans.push_back(handler(0, 0, 10));          // 0: p0 handler
    spans.push_back(send(0, 1, 0, 0, 1, 2));     // 1: p0->p1 #0
    spans.push_back(send(0, 1, 0, 1, 3, 4));     // 2: p0->p1 #1
    spans.push_back(send(0, 2, 0, 0, 5, 6));     // 3: p0->p2 #0
    Span r0 = handler(1, 20, 30);
    r0.peer = 0;
    r0.channel_seq = 1;  // second receive on p0->p1
    Span r1 = handler(1, 30, 40);
    r1.peer = 0;
    r1.channel_seq = 0;
    Span r2 = handler(2, 20, 30);
    r2.peer = 0;
    r2.channel_seq = 0;
    Span orphan = handler(2, 50, 60);  // its send was never recorded
    orphan.peer = 1;
    orphan.channel_seq = 0;
    spans.insert(spans.end(), {r0, r1, r2, orphan});
    EXPECT_EQ(link_fifo(spans), 3u);
    EXPECT_EQ(spans[4].link, 2);
    EXPECT_EQ(spans[5].link, 1);
    EXPECT_EQ(spans[6].link, 3);
    EXPECT_EQ(spans[7].link, -1);
}

TEST(FifoLink, BatchFrameLinksEveryEnvelope) {
    std::vector<Span> spans;
    Span batch = send(0, 1, -1, 0, 1, 2);  // envelopes #0..#2 in one frame
    batch.envelopes = 3;
    spans.push_back(batch);
    spans.push_back(send(0, 1, -1, 3, 3, 4));  // #3
    for (std::uint32_t k = 0; k < 4; ++k) {
        Span r = handler(1, 10 + k, 11 + k);
        r.peer = 0;
        r.channel_seq = k;
        spans.push_back(r);
    }
    EXPECT_EQ(link_fifo(spans), 4u);
    EXPECT_EQ(spans[2].link, 0);
    EXPECT_EQ(spans[3].link, 0);
    EXPECT_EQ(spans[4].link, 0);
    EXPECT_EQ(spans[5].link, 1);
}

TEST(MetricNames, AreValidAndUnique) {
    std::set<std::string> seen;
    for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
        for (const MetricDef& d : *defs) {
            EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
            EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
            const std::string unit = d.unit;
            EXPECT_FALSE(unit.empty());
            EXPECT_LE(unit.size(), 16u);
        }
    }
    for (const std::string& w : workload_names()) EXPECT_TRUE(valid_metric_name(w));
    EXPECT_FALSE(valid_metric_name(""));
    EXPECT_FALSE(valid_metric_name("_lead"));
    EXPECT_FALSE(valid_metric_name("has space"));
    EXPECT_FALSE(valid_metric_name("slash/name"));
    EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
    EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(PerOp, ZeroOpsGiveZeroNotNan) {
    EXPECT_EQ(per_op(1234.0, 0), 0.0);
    EXPECT_EQ(per_op(0.0, 0), 0.0);
    EXPECT_DOUBLE_EQ(per_op(300.0, 4), 75.0);
    EXPECT_EQ(ratio(5.0, 0.0), 0.0);
    std::vector<std::int64_t> none;
    EXPECT_EQ(quantile(none, 0.5), 0);
}

TEST(Quantile, NearestRank) {
    std::vector<std::int64_t> v{5, 1, 4, 2, 3};
    EXPECT_EQ(quantile(v, 0.5), 3);
    EXPECT_EQ(quantile(v, 0.0), 1);
    EXPECT_EQ(quantile(v, 1.0), 5);
}

}  // namespace
}  // namespace perfbench
