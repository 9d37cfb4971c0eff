#include "multicast/client_ack.hpp"

#include "multicast/api.hpp"

namespace wbam {

bool DeliveredBitmap::mark(MsgId id) {
    std::uint64_t& word =
        pages_[id >> page_shift][(id >> 6) & (page_bytes / 8 - 1)];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if (word & bit) return false;
    word |= bit;
    return true;
}

bool DeliveredBitmap::contains(MsgId id) const {
    const auto it = pages_.find(id >> page_shift);
    if (it == pages_.end()) return false;
    return (it->second[(id >> 6) & (page_bytes / 8 - 1)] >> (id & 63)) & 1;
}

ClientAckRule::ClientAckRule(const Topology& topo, ProcessId self)
    : topo_(topo), group_(topo.group_of(self)) {}

void ClientAckRule::on_request(Context& ctx, ProcessId from,
                               const BufferSlice& bytes) {
    if (!topo_.is_client(from) || bytes.empty() ||
        bytes.data()[0] != static_cast<std::uint8_t>(codec::Module::client))
        return;
    try {
        const codec::EnvelopeView env(bytes);
        if (env.type != static_cast<std::uint8_t>(ClientMsgType::multicast) ||
            msg_id_client(env.about) != from)
            return;
        if (delivered_.contains(env.about))
            ctx.send(from, encode_deliver_ack(group_, env.about));
        else
            pending_.insert(env.about);
    } catch (const codec::DecodeError&) {
        // Malformed: the protocol drops it too.
    }
}

void ClientAckRule::on_delivered(Context& ctx, MsgId id) {
    delivered_.mark(id);
    if (pending_.erase(id) != 0)
        ctx.send(msg_id_client(id), encode_deliver_ack(group_, id));
}

}  // namespace wbam
