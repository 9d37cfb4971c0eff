// Builds replica processes per protocol kind. Kept separate from the
// cluster harness so benches and examples can instantiate replicas
// directly.
#include "common/assert.hpp"
#include "fastcast/fastcast.hpp"
#include "ftskeen/ftskeen.hpp"
#include "harness/cluster.hpp"
#include "multicast/client_ack.hpp"
#include "skeen/skeen.hpp"
#include "wbcast/protocol.hpp"

namespace wbam::harness {

std::unique_ptr<Process> make_replica(ProtocolKind kind, const Topology& topo,
                                      ProcessId pid, DeliverySink sink,
                                      const ReplicaConfig& cfg) {
    const GroupId g = topo.group_of(pid);
    switch (kind) {
        case ProtocolKind::skeen:
            return std::make_unique<skeen::SkeenReplica>(topo, g,
                                                         std::move(sink), cfg);
        case ProtocolKind::ftskeen:
            return std::make_unique<ftskeen::FtSkeenReplica>(
                topo, pid, std::move(sink), cfg);
        case ProtocolKind::fastcast:
            return std::make_unique<fastcast::FastCastReplica>(
                topo, pid, std::move(sink), cfg);
        case ProtocolKind::wbcast:
            return std::make_unique<wbcast::WbcastReplica>(topo, pid,
                                                           std::move(sink), cfg);
    }
    WBAM_ASSERT_MSG(false, "unknown protocol kind");
    return nullptr;
}

namespace {

// Puts a replica behind the client-ack rule: requests pass through the
// rule on their way in, and the rule acks after the wrapped sink ran.
class ClientAckingReplica final : public Process {
public:
    ClientAckingReplica(ProtocolKind kind, const Topology& topo, ProcessId pid,
                        DeliverySink sink, const ReplicaConfig& cfg)
        : acks_(topo, pid),
          inner_(make_replica(
              kind, topo, pid,
              [this, sink = std::move(sink)](Context& ctx, GroupId group,
                                             const AppMessage& m) {
                  if (sink) sink(ctx, group, m);
                  acks_.on_delivered(ctx, group, m.id);
              },
              cfg)) {}

    void on_start(Context& ctx) override { inner_->on_start(ctx); }
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override {
        acks_.on_request(ctx, from, bytes);
        inner_->on_message(ctx, from, bytes);
    }
    void on_timer(Context& ctx, TimerId id) override {
        inner_->on_timer(ctx, id);
    }
    Process* wrapped() override { return inner_.get(); }

private:
    ClientAckRule acks_;
    std::unique_ptr<Process> inner_;
};

}  // namespace

std::unique_ptr<Process> make_acking_replica(ProtocolKind kind,
                                             const Topology& topo,
                                             ProcessId pid, DeliverySink sink,
                                             const ReplicaConfig& cfg) {
    return std::make_unique<ClientAckingReplica>(kind, topo, pid,
                                                 std::move(sink), cfg);
}

}  // namespace wbam::harness
