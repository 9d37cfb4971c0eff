// Span model and the pure arithmetic of the benchmark's ledger: handler
// and send spans, self time over nested spans, FIFO send/receive linkage,
// per-op ratios and metric-name validation. Header-only so the self-tests
// exercise exactly the code the benchmark runs.
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t { start = 0, message = 1, timer = 2, send = 3 };

// One handler call (start/message/timer) or one Context::send inside it
// (one span per recipient). t0/t1 are the host's steady clock in ns; `at`
// is the runtime's clock at the start (wall on net, simulated on sim).
struct Span {
    std::int32_t pid = -1;       // process the span ran in
    std::int32_t peer = -1;      // sender (message) or recipient (send)
    SpanKind kind = SpanKind::message;
    std::uint8_t module = 0xff;  // envelope module (0xff: none/unparsed)
    std::uint8_t type = 0;
    std::uint64_t about = 0;     // envelope `about` msg id: the request id
    std::int64_t at = 0;
    std::int64_t t0 = 0, t1 = 0;
    std::int64_t cpu = 0;        // thread CPU consumed (sends: t1 - t0)
    std::int32_t parent = -1;    // enclosing handler span (sends only)
    std::uint32_t channel_seq = 0;  // k-th envelope on (sender -> receiver)
    std::uint32_t envelopes = 1;    // sends: envelopes the frame carries
    std::int64_t link = -1;      // message spans: index of the causing send
};

// Length of [a0, a1) minus the part covered by the union of `children`
// (intervals clipped to [a0, a1); overlaps counted once).
inline std::int64_t self_time(std::int64_t a0, std::int64_t a1,
                              std::vector<std::pair<std::int64_t, std::int64_t>>
                                  children) {
    if (a1 <= a0) return 0;
    std::sort(children.begin(), children.end());
    std::int64_t covered = 0;
    std::int64_t cur0 = 0, cur1 = 0;
    bool open = false;
    for (auto [c0, c1] : children) {
        c0 = std::max(c0, a0);
        c1 = std::min(c1, a1);
        if (c1 <= c0) continue;
        if (open && c0 <= cur1) {
            cur1 = std::max(cur1, c1);
            continue;
        }
        if (open) covered += cur1 - cur0;
        cur0 = c0;
        cur1 = c1;
        open = true;
    }
    if (open) covered += cur1 - cur0;
    return (a1 - a0) - covered;
}

// Wall self time of every handler span (indexed like `spans`; send spans
// get 0): its interval minus the union of its child send spans.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span& s : spans)
        if (s.kind == SpanKind::send && s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    std::vector<std::int64_t> out(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].kind != SpanKind::send)
            out[i] = self_time(spans[i].t0, spans[i].t1, kids[i]);
    return out;
}

// Reliable-FIFO channels make the k-th envelope sent a->b the cause of
// the k-th receive a->b (a batch frame's envelopes all link to its send).
// Fills Span::link of every message span whose send was recorded; returns
// how many were linked.
inline std::size_t link_fifo(std::vector<Span>& spans) {
    std::map<std::pair<std::pair<std::int32_t, std::int32_t>, std::uint32_t>,
             std::int64_t>
        sends;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.kind != SpanKind::send) continue;
        for (std::uint32_t k = 0; k < s.envelopes; ++k)
            sends[{{s.pid, s.peer}, s.channel_seq + k}] =
                static_cast<std::int64_t>(i);
    }
    std::size_t linked = 0;
    for (Span& s : spans) {
        if (s.kind != SpanKind::message) continue;
        const auto it = sends.find({{s.peer, s.pid}, s.channel_seq});
        if (it == sends.end()) continue;
        s.link = it->second;
        ++linked;
    }
    return linked;
}

// Ratio with a zero-safe base: a run that completed no ops reports 0, not
// NaN or infinity (JSON has no spelling for either).
inline double per_op(double total, std::uint64_t ops) {
    return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

inline double ratio(double num, double den) {
    return den == 0 ? 0.0 : num / den;
}

// Metric names: start with a letter or digit; at most 64 of letters,
// digits, '_', '.', '-'.
inline bool valid_metric_name(const std::string& name) {
    if (name.empty() || name.size() > 64) return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0])) return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

// Exact order statistic: the value below which a share q of `v` lies
// (nearest rank, q in [0, 1]). Reorders `v`.
inline std::int64_t quantile(std::vector<std::int64_t>& v, double q) {
    if (v.empty()) return 0;
    const auto n = v.size();
    auto k = static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
    k = std::min(k, n - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return v[k];
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
