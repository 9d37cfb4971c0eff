#include "net/send_queue.hpp"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>

#include "common/assert.hpp"
#include "net/stats.hpp"

namespace wbam::net {

namespace {
// Hard upper bound on the stack iovec array; FlushLimits::max_iov is
// clamped to it (IOV_MAX is far larger on every supported platform).
constexpr int max_iov_cap = 128;
}  // namespace

SendQueue::SendQueue(FlushLimits limits)
    : max_iov_(std::clamp(limits.max_iov, 2, max_iov_cap)),
      max_bytes_(std::max<std::size_t>(limits.max_bytes, 1)) {}

std::uint64_t SendQueue::push_data(BufferSlice body) {
    const std::uint64_t seq = next_seq_++;
    out_.push_back(
        QueuedFrame{make_data_header(seq, body.size()), std::move(body), seq});
    return seq;
}

void SendQueue::push_control(DataHeader hdr, BufferSlice body) {
    out_.push_back(QueuedFrame{hdr, std::move(body), 0});
}

void SendQueue::push_control_front(DataHeader hdr, BufferSlice body) {
    WBAM_ASSERT_MSG(head_sent_ == 0, "prepend under a partial write");
    out_.push_front(QueuedFrame{hdr, std::move(body), 0});
}

SendQueue::FlushStatus SendQueue::flush(int fd, bool* progressed) {
    if (progressed) *progressed = false;
    while (!out_.empty()) {
        iovec iov[max_iov_cap];
        int iovcnt = 0;
        std::size_t batched = 0;
        std::size_t offset = head_sent_;
        for (const QueuedFrame& f : out_) {
            if (iovcnt + 2 > max_iov_) break;
            if (iovcnt > 0 && batched >= max_bytes_) break;
            if (offset < f.hdr.size()) {
                iov[iovcnt++] = {
                    const_cast<std::uint8_t*>(f.hdr.data()) + offset,
                    f.hdr.size() - offset};
                batched += f.hdr.size() - offset;
                if (!f.body.empty()) {
                    iov[iovcnt++] = {const_cast<std::uint8_t*>(f.body.data()),
                                     f.body.size()};
                    batched += f.body.size();
                }
            } else {
                const std::size_t body_off = offset - f.hdr.size();
                iov[iovcnt++] = {
                    const_cast<std::uint8_t*>(f.body.data()) + body_off,
                    f.body.size() - body_off};
                batched += f.body.size() - body_off;
            }
            offset = 0;  // only the head frame is partially written
        }
        // One gather-write per batch, as writev, but a peer that closed
        // its end gets EPIPE (FlushStatus::error) instead of SIGPIPE
        // killing the whole process.
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                return FlushStatus::blocked;
            return FlushStatus::error;
        }
        if (progressed) *progressed = true;
        ++writev_calls_;
        std::size_t advanced = static_cast<std::size_t>(n);
        std::uint64_t completed = 0;
        while (advanced > 0 && !out_.empty()) {
            const std::size_t remaining = out_.front().size() - head_sent_;
            const std::size_t take = std::min(advanced, remaining);
            head_sent_ += take;
            advanced -= take;
            if (head_sent_ == out_.front().size()) {
                // Data frames stay retained until the peer acks them (the
                // retransmit buffer of the reliable channel); control
                // frames are fire-and-forget.
                ++completed;
                if (out_.front().seq != 0)
                    unacked_.push_back(std::move(out_.front()));
                out_.pop_front();
                head_sent_ = 0;
            }
        }
        frames_sent_ += completed;
        transport_stats::note_writev(completed);
        if (static_cast<std::size_t>(n) < batched)
            return FlushStatus::blocked;  // kernel full
    }
    return FlushStatus::idle;
}

void SendQueue::on_ack(std::uint64_t upto) {
    while (!unacked_.empty() && unacked_.front().seq <= upto)
        unacked_.pop_front();
}

void SendQueue::requeue_unacked() {
    head_sent_ = 0;  // a partially written head restarts from its start
    std::deque<QueuedFrame> requeued;
    requeued.swap(unacked_);
    for (QueuedFrame& f : out_)
        if (f.seq != 0) requeued.push_back(std::move(f));
    out_ = std::move(requeued);
}

}  // namespace wbam::net
