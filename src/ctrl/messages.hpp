// Wire messages of the distributed-benchmark control plane
// (codec::Module::ctrl), spoken over the same net::NetWorld frame layer
// (and reliable-FIFO Context::send contract) as the protocols themselves.
// One coordinator process — by convention the LAST client pid of the
// topology — drives every other process through this exchange:
//
//   node -> coord    READY        on_start: "I exist and can be dialled"
//   coord -> node    RUN_SPEC     the serialized experiment configuration
//   node -> coord    SPEC_OK      spec installed (replicas instantiate
//                                 their protocol stack at this point)
//   coord -> node    START        opens the measurement window (absolute
//                                 timepoints when the deployment shares a
//                                 clock epoch — see NetConfig::epoch —
//                                 else each driver opens it on receipt)
//   driver -> coord  SAMPLE       streamed batches of raw latency samples
//   driver -> coord  DRIVER_DONE  local window closed + final counters
//   coord -> driver  STOP_LOAD    sent once every driver is done: issue
//                                 no new ops, keep resending the ones in
//                                 flight, so each group's tail drains
//                                 before the digests are compared
//   coord -> replica REPORT       request the delivery-sequence digest
//   replica -> coord REPLICA_DONE delivered count + order digest (the
//                                 coordinator's per-group agreement check)
//   coord -> node    SHUTDOWN     drain and exit
//
// Between START and SHUTDOWN the drivers speak the data plane
// (codec::Module::client, multicast/api.hpp), not this module:
//
//   driver -> leader  MULTICAST    one per destination group, to the
//                                  group's initial leader
//   replica -> driver DELIVER_ACK  from a replica the driver sent the
//                                  request to, once it delivered the op
//                                  (multicast/client_ack.hpp): one per
//                                  (op, group) in steady state
//   driver -> members MULTICAST    resend of an op unacked after
//                                  client_retry, to every member of each
//                                  unacked group; members that already
//                                  delivered re-ack at once
//
// All bodies use the shared codec (varints, zigzag), so malformed control
// traffic is rejected by the same DecodeError path as protocol traffic.
#ifndef WBAM_CTRL_MESSAGES_HPP
#define WBAM_CTRL_MESSAGES_HPP

#include "codec/wire.hpp"
#include "harness/cluster.hpp"
#include "obs/metrics.hpp"

namespace wbam::ctrl {

enum class CtrlMsgType : std::uint8_t {
    ready = 0,
    run_spec = 1,
    spec_ok = 2,
    start = 3,
    sample = 4,
    driver_done = 5,
    report = 6,
    replica_done = 7,
    shutdown = 8,
    stop_load = 9,
};

// What the drivers generate: opaque byte payloads multicast to random
// destination sets (the microbenchmark), or KV-store operations drawn
// from the YCSB-style zipfian workload (the scale-out benchmark, where
// each group is one shard and replicas run a kv::ShardState apply sink).
enum class WorkloadKind : std::uint8_t { bytes = 0, kv = 1 };

inline const char* to_string(WorkloadKind k) {
    return k == WorkloadKind::kv ? "kv" : "bytes";
}

// The experiment configuration the coordinator distributes: everything a
// node needs to build its replica stack or drive its share of the load.
struct BenchSpec {
    harness::ProtocolKind proto = harness::ProtocolKind::wbcast;
    std::uint32_t dest_groups = 1;
    std::uint32_t payload = 20;        // bytes per multicast
    std::uint32_t sessions = 1;        // closed-loop sessions per driver
    Duration warmup = milliseconds(500);
    Duration measure = seconds(3);     // fixed-length measurement window
    Duration sample_interval = milliseconds(250);
    Duration client_retry = milliseconds(500);
    std::uint64_t seed = 1;
    // Replica knobs worth distributing (the rest keep their defaults).
    Duration heartbeat_interval = milliseconds(50);
    Duration suspect_timeout = seconds(30);
    Duration retry_interval = milliseconds(200);
    // The simulator's implementation-cost model (ReplicaConfig's
    // consensus_cmd_cost / wbcast_*_cost). Charged through Context::charge,
    // which costs nothing on TCP; 0 = off.
    Duration consensus_cmd_cost = 0;
    Duration wbcast_multicast_cost = 0;
    Duration wbcast_accept_cost = 0;
    // Transport shard count the run was launched with (wbamd builds its
    // NetWorld before the spec arrives, so this is recorded metadata for
    // the report, not a knob the spec can change remotely; 0 = auto).
    std::uint32_t net_shards = 0;
    // Scale-out KV workload (ignored when workload == bytes): zipfian key
    // popularity over kv_keys keys, theta in permille (990 = YCSB's 0.99;
    // 0 = uniform), op mix read/cross-shard-transfer/add percentages.
    WorkloadKind workload = WorkloadKind::bytes;
    std::uint32_t kv_keys = 1000;
    std::uint32_t kv_theta_milli = 990;
    std::uint32_t kv_read_pct = 50;
    std::uint32_t kv_cross_pct = 10;

    ReplicaConfig replica_config() const {
        ReplicaConfig cfg;
        cfg.heartbeat_interval = heartbeat_interval;
        cfg.suspect_timeout = suspect_timeout;
        cfg.retry_interval = retry_interval;
        cfg.consensus_cmd_cost = consensus_cmd_cost;
        cfg.wbcast_multicast_cost = wbcast_multicast_cost;
        cfg.wbcast_accept_cost = wbcast_accept_cost;
        return cfg;
    }

    void encode(codec::Writer& w) const {
        w.u8(static_cast<std::uint8_t>(proto));
        w.varint(dest_groups);
        w.varint(payload);
        w.varint(sessions);
        w.zigzag(warmup);
        w.zigzag(measure);
        w.zigzag(sample_interval);
        w.zigzag(client_retry);
        w.varint(seed);
        w.zigzag(heartbeat_interval);
        w.zigzag(suspect_timeout);
        w.zigzag(retry_interval);
        w.zigzag(consensus_cmd_cost);
        w.zigzag(wbcast_multicast_cost);
        w.zigzag(wbcast_accept_cost);
        w.varint(net_shards);
        w.u8(static_cast<std::uint8_t>(workload));
        w.varint(kv_keys);
        w.varint(kv_theta_milli);
        w.varint(kv_read_pct);
        w.varint(kv_cross_pct);
    }
    static BenchSpec decode(codec::Reader& r) {
        BenchSpec s;
        const std::uint8_t proto = r.u8();
        if (proto > static_cast<std::uint8_t>(harness::ProtocolKind::wbcast))
            throw codec::DecodeError("unknown protocol kind");
        s.proto = static_cast<harness::ProtocolKind>(proto);
        codec::read_field(r, s.dest_groups);
        codec::read_field(r, s.payload);
        codec::read_field(r, s.sessions);
        s.warmup = r.zigzag();
        s.measure = r.zigzag();
        s.sample_interval = r.zigzag();
        s.client_retry = r.zigzag();
        s.seed = r.varint();
        s.heartbeat_interval = r.zigzag();
        s.suspect_timeout = r.zigzag();
        s.retry_interval = r.zigzag();
        s.consensus_cmd_cost = r.zigzag();
        s.wbcast_multicast_cost = r.zigzag();
        s.wbcast_accept_cost = r.zigzag();
        codec::read_field(r, s.net_shards);
        const std::uint8_t wl = r.u8();
        if (wl > static_cast<std::uint8_t>(WorkloadKind::kv))
            throw codec::DecodeError("unknown workload kind");
        s.workload = static_cast<WorkloadKind>(wl);
        codec::read_field(r, s.kv_keys);
        codec::read_field(r, s.kv_theta_milli);
        codec::read_field(r, s.kv_read_pct);
        codec::read_field(r, s.kv_cross_pct);
        if (s.dest_groups == 0 || s.sessions == 0 || s.measure <= 0 ||
            s.sample_interval <= 0 || s.consensus_cmd_cost < 0 ||
            s.wbcast_multicast_cost < 0 || s.wbcast_accept_cost < 0)
            throw codec::DecodeError("degenerate bench spec");
        if (s.workload == WorkloadKind::kv &&
            (s.kv_keys < 2 || s.kv_theta_milli >= 1000 ||
             s.kv_read_pct + s.kv_cross_pct > 100))
            throw codec::DecodeError("degenerate kv workload");
        return s;
    }
};

enum class NodeRole : std::uint8_t { replica = 0, driver = 1 };

struct ReadyMsg {
    NodeRole role = NodeRole::replica;

    void encode(codec::Writer& w) const {
        w.u8(static_cast<std::uint8_t>(role));
    }
    static ReadyMsg decode(codec::Reader& r) {
        ReadyMsg m;
        const std::uint8_t role = r.u8();
        if (role > static_cast<std::uint8_t>(NodeRole::driver))
            throw codec::DecodeError("unknown node role");
        m.role = static_cast<NodeRole>(role);
        return m;
    }
};

// START: the measurement window. Absolute timepoints on the shared clock
// epoch when window_open > 0 (single-machine deployments: the netns mode
// passes one --epoch-ns to every process, so steady_clock readings agree
// across processes); both zero means "relative": each driver opens its
// window warmup after receipt and closes it measure later.
struct StartMsg {
    TimePoint window_open = 0;
    TimePoint window_close = 0;

    void encode(codec::Writer& w) const {
        w.zigzag(window_open);
        w.zigzag(window_close);
    }
    static StartMsg decode(codec::Reader& r) {
        StartMsg m;
        m.window_open = r.zigzag();
        m.window_close = r.zigzag();
        if (m.window_close < m.window_open)
            throw codec::DecodeError("window closes before it opens");
        return m;
    }
};

// SAMPLE: a drained batch of raw completion-latency samples plus the
// driver's running in-window counter (the coordinator's progress signal).
struct SampleMsg {
    std::uint64_t completed_in_window = 0;
    std::vector<Duration> latencies_ns;

    void encode(codec::Writer& w) const {
        w.varint(completed_in_window);
        w.varint(latencies_ns.size());
        for (const Duration d : latencies_ns)
            w.varint(static_cast<std::uint64_t>(d < 0 ? 0 : d));
    }
    static SampleMsg decode(codec::Reader& r) {
        SampleMsg m;
        m.completed_in_window = r.varint();
        const std::uint64_t n = r.varint();
        if (n > r.remaining())  // >= 1 byte per varint sample
            throw codec::DecodeError("sample count exceeds body");
        m.latencies_ns.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i)
            m.latencies_ns.push_back(static_cast<Duration>(r.varint()));
        return m;
    }
};

struct DriverDoneMsg {
    std::uint64_t completed_in_window = 0;
    std::uint64_t issued = 0;
    Duration window_ns = 0;

    void encode(codec::Writer& w) const {
        w.varint(completed_in_window);
        w.varint(issued);
        w.zigzag(window_ns);
    }
    static DriverDoneMsg decode(codec::Reader& r) {
        DriverDoneMsg m;
        m.completed_in_window = r.varint();
        m.issued = r.varint();
        m.window_ns = r.zigzag();
        return m;
    }
};

// REPLICA_DONE: the replica's delivery record in digest form. Replicas of
// one group must agree on the exact delivery sequence, so (count, digest)
// equality across a group is the distributed run's ordering check; when
// every op goes to every group, the groups must agree with each other too.
struct ReplicaDoneMsg {
    std::uint64_t delivered = 0;
    std::uint64_t digest = 0;  // order-sensitive FNV-1a over the sequence
    // KV workload only: the shard's order-sensitive application-state hash
    // (kv::ShardState::state_hash). Zero for the bytes workload. Stronger
    // than the delivery digest: it also proves every replica APPLIED the
    // same ops in the same order, not just delivered the same ids.
    std::uint64_t app_hash = 0;
    // White-box telemetry: the replica's full metrics snapshot (counters,
    // per-stage latency histograms in sparse-bucket form, event ring) at
    // REPORT time. The coordinator sums counters and bucket-merges the
    // histograms across replicas, so the fig report's stage percentiles
    // are exact over the whole cluster.
    obs::MetricsSnapshot metrics;

    void encode(codec::Writer& w) const {
        w.varint(delivered);
        w.u64(digest);
        w.u64(app_hash);
        metrics.encode(w);
    }
    static ReplicaDoneMsg decode(codec::Reader& r) {
        ReplicaDoneMsg m;
        m.delivered = r.varint();
        m.digest = r.u64();
        m.app_hash = r.u64();
        m.metrics = obs::MetricsSnapshot::decode(r);
        return m;
    }
};

// Order-sensitive digest of a delivery sequence (FNV-1a over msg ids).
inline std::uint64_t fold_delivery_digest(std::uint64_t digest, MsgId id) {
    if (digest == 0) digest = 1469598103934665603ULL;  // FNV offset basis
    for (int shift = 0; shift < 64; shift += 8) {
        digest ^= (id >> shift) & 0xff;
        digest *= 1099511628211ULL;  // FNV prime
    }
    return digest;
}

template <codec::WireMessage T>
Buffer encode_ctrl(CtrlMsgType type, const T& body) {
    return codec::encode_envelope(codec::Module::ctrl,
                                  static_cast<std::uint8_t>(type),
                                  invalid_msg, body);
}

inline Buffer encode_ctrl(CtrlMsgType type) {
    return codec::encode_envelope(codec::Module::ctrl,
                                  static_cast<std::uint8_t>(type),
                                  invalid_msg);
}

}  // namespace wbam::ctrl

#endif  // WBAM_CTRL_MESSAGES_HPP
