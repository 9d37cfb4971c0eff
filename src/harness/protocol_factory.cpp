// Builds replica processes per protocol kind. Kept separate from the
// cluster harness so benches and examples can instantiate replicas
// directly.
#include "common/assert.hpp"
#include "fastcast/fastcast.hpp"
#include "ftskeen/ftskeen.hpp"
#include "harness/cluster.hpp"
#include "skeen/skeen.hpp"
#include "wbcast/protocol.hpp"

namespace wbam::harness {

std::unique_ptr<Process> make_replica(ProtocolKind kind, const Topology& topo,
                                      ProcessId pid, DeliverySink sink,
                                      const ReplicaConfig& cfg) {
    switch (kind) {
        case ProtocolKind::skeen:
            return std::make_unique<skeen::SkeenReplica>(topo, pid,
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

}  // namespace wbam::harness
