// In-process measurement glue for the figure benchmarks: a LatencySampler
// (the node-side measurement core, shared with the distributed control
// plane) plus the delivery sink and per-group acknowledgement logic that
// close the loop back to the originating client. The distributed
// counterpart splits the same roles across processes: ctrl::BenchDriver
// hosts the sampler next to the clients and ctrl::Coordinator aggregates
// the streamed samples (src/ctrl/bench_plane.hpp).
#ifndef WBAM_CLIENT_BENCH_COORDINATOR_HPP
#define WBAM_CLIENT_BENCH_COORDINATOR_HPP

#include "client/latency_sampler.hpp"
#include "multicast/api.hpp"

namespace wbam::client {

class BenchCoordinator {
public:
    explicit BenchCoordinator(Topology topo) : topo_(std::move(topo)) {}

    // Delivery sink to install on every replica. Sends one deliver-ack per
    // (message, group) — from the first replica of the group to deliver —
    // back to the originating client.
    DeliverySink make_sink();

    // Called by clients when they issue a multicast.
    void note_multicast(MsgId id, TimePoint at, std::size_t ngroups) {
        sampler_.note_multicast(id, at, ngroups);
    }

    void set_window(TimePoint start, TimePoint end) {
        sampler_.set_window(start, end);
    }

    const stats::Histogram& latency() const { return sampler_.latency(); }
    std::uint64_t completed_in_window() const {
        return sampler_.completed_in_window();
    }

private:
    Topology topo_;
    LatencySampler sampler_;
};

}  // namespace wbam::client

#endif  // WBAM_CLIENT_BENCH_COORDINATOR_HPP
