// The client-ack rule every replica applies (ReplicaCore owns one, so
// the replica acks its own clients). A client completes an op at the
// first delivery in each destination group
// (arXiv 1904.07171, §II), so it needs one DELIVER_ACK per group, not one
// per replica. A replica therefore acks a delivery iff a client sent it
// the request: a client/multicast envelope whose sender is that client.
// Replica-to-replica MULTICAST retries (message recovery) do not count.
//
//   * Request for an id not yet delivered here: the id waits in a pending
//     set, and the ack leaves when this replica delivers it. The set holds
//     only requests in flight.
//   * Request for an id already delivered here: ack at once, looked up in
//     a paged bitmap of delivered ids.
//
// In steady state a client sends each op only to the initial leader of
// each destination group, so each (op, group) is acked exactly once. On
// the client's resend path every member of an unacked group is asked:
// members that already delivered re-ack from the bitmap, so a crashed or
// deposed addressee still lets its ops complete. Deliveries a restarted
// replica re-emits from its WAL were requested by nobody since the
// restart, so replay sends no acks; it marks them, and every delivery it
// suppresses as already done, so a resent request for any op delivered
// before the crash is re-acked from the bitmap.
#ifndef WBAM_MULTICAST_CLIENT_ACK_HPP
#define WBAM_MULTICAST_CLIENT_ACK_HPP

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/process.hpp"
#include "common/topology.hpp"

namespace wbam {

// Set of delivered message ids, one bit per id. MsgId is (client, seq)
// with seq in the low 32 bits, so a page keyed by id >> 12 holds 4096
// consecutive ops of one client in 512 bytes. Only touched pages exist:
// any single id, seq 0 and 2^32 - 1 included, costs one page. A client's
// ops interleave across groups, so a group sees gaps (the ops sent
// elsewhere); unlike a contiguous watermark, the bitmap does not care.
class DeliveredBitmap {
public:
    static constexpr unsigned page_shift = 12;
    static constexpr std::size_t page_bytes = (std::size_t{1} << page_shift) / 8;

    // Marks id; false if it was already marked.
    bool mark(MsgId id);
    bool contains(MsgId id) const;
    std::size_t pages() const { return pages_.size(); }

private:
    using Page = std::array<std::uint64_t, page_bytes / 8>;

    std::unordered_map<MsgId, Page> pages_;
};

class ClientAckRule {
public:
    // `self` is the replica applying the rule; its group names the acks.
    ClientAckRule(const Topology& topo, ProcessId self);

    // Every message the replica receives passes through here before the
    // protocol sees it; only client requests are acted on.
    void on_request(Context& ctx, ProcessId from, const BufferSlice& bytes);
    // Every delivery, replayed ones included: marks id delivered and
    // acks it if a client asked this replica for it.
    void on_delivered(Context& ctx, MsgId id);
    // Marks an id delivered before a restart (no ack).
    void restore(MsgId id) { delivered_.mark(id); }

private:
    Topology topo_;
    GroupId group_;
    DeliveredBitmap delivered_;
    std::unordered_set<MsgId> pending_;
};

}  // namespace wbam

#endif  // WBAM_MULTICAST_CLIENT_ACK_HPP
