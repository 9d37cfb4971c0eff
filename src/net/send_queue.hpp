// Per-connection coalescing send queue: many queued frames, ONE writev
// per flush batch. This is where the per-send syscall of the seed
// transport goes away — Context::send (and the piggybacked acks) only
// append to the queue; the owning loop drains it with gathered writes
// bounded by an iovec-count and byte budget.
//
// The queue also owns the reliable-channel send state: the per-channel
// DATA sequence counter and the written-but-unacked retransmit buffer.
// A connection drop calls requeue_unacked() and the next dial replays
// everything still owed, in order — exactly the delay-not-lose contract
// the single-loop transport provided.
//
// Zero allocations per message on the batched path: a QueuedFrame is an
// inline fixed-size header (DataHeader, stack-built by make_data_header /
// make_ack_header) plus the RETAINED BufferSlice the protocol handed to
// Context::send. Only the HELLO handshake (once per connection) carries a
// heap-encoded payload.
#ifndef WBAM_NET_SEND_QUEUE_HPP
#define WBAM_NET_SEND_QUEUE_HPP

#include <cstdint>
#include <deque>

#include "common/bytes.hpp"
#include "net/frame.hpp"

namespace wbam::net {

// One queued frame: inline header + retained payload slice. seq == 0
// marks control frames (hello/ack) — fire-and-forget, never retained.
struct QueuedFrame {
    DataHeader hdr;
    BufferSlice body;
    std::uint64_t seq = 0;
    std::size_t size() const { return hdr.size() + body.size(); }
};

// Per-writev batch budget. max_iov is clamped to [2, 128]: a frame needs
// up to two iovec entries (header + body), so 2 is the smallest bound
// that makes progress. The head frame is always included even when it
// alone exceeds max_bytes.
struct FlushLimits {
    int max_iov = 64;
    std::size_t max_bytes = 1 << 20;
};

class SendQueue {
public:
    enum class FlushStatus {
        idle,     // queue fully drained to the kernel
        blocked,  // kernel buffer full (or EAGAIN): retry on POLLOUT
        error,    // connection is dead
    };

    explicit SendQueue(FlushLimits limits = {});

    // Appends a DATA frame carrying `body`, assigning the next channel
    // sequence number. Returns the assigned seq.
    std::uint64_t push_data(BufferSlice body);
    // Appends a control frame (inline header, optional payload slice).
    void push_control(DataHeader hdr, BufferSlice body = {});
    // Prepends the HELLO handshake on a freshly dialled connection.
    // Requires no partially-written head (head_sent() == 0).
    void push_control_front(DataHeader hdr, BufferSlice body);

    // Gathered-write flush: builds iovec batches over the queue (honoring
    // a partially-written head frame) and issues ONE gathered write
    // (sendmsg with MSG_NOSIGNAL, so `fd` must be a socket) per batch
    // until the queue drains, the kernel blocks, or the write fails.
    // Completed DATA frames move to the retransmit buffer. Sets
    // *progressed when at least one write succeeded.
    FlushStatus flush(int fd, bool* progressed = nullptr);

    // Cumulative ack from the peer: frames with seq <= upto are done.
    void on_ack(std::uint64_t upto);

    // Connection death: unacked DATA frames re-queue ahead of the not-yet
    // written ones (in order); control frames are dropped — the next dial
    // opens with a fresh HELLO and acks regenerate on the next delivery.
    void requeue_unacked();

    bool empty() const { return out_.empty(); }
    std::size_t pending_frames() const { return out_.size(); }
    std::size_t unacked_frames() const { return unacked_.size(); }
    std::size_t head_sent() const { return head_sent_; }

    // Per-queue syscall-amortization counters (the global mirror lives in
    // net::transport_stats): frames_sent / writev_calls is the coalescing
    // factor.
    std::uint64_t writev_calls() const { return writev_calls_; }
    std::uint64_t frames_sent() const { return frames_sent_; }

private:
    std::deque<QueuedFrame> out_;
    std::deque<QueuedFrame> unacked_;
    std::size_t head_sent_ = 0;  // bytes of out_.front() already written
    std::uint64_t next_seq_ = 1;
    int max_iov_;
    std::size_t max_bytes_;
    std::uint64_t writev_calls_ = 0;
    std::uint64_t frames_sent_ = 0;
};

}  // namespace wbam::net

#endif  // WBAM_NET_SEND_QUEUE_HPP
