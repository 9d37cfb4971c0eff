// Cross-thread entry into a NetWorld's event loop: the MPSC command
// mailbox and the eventfd / self-pipe wakeup the loop sleeps on. The loop
// thread owns all of the world's state; only run_on(), drop_connections()
// and shutdown() are called from other threads; they post or ring here.
#ifndef WBAM_NET_SHARD_HPP
#define WBAM_NET_SHARD_HPP

#include <unistd.h>
#ifdef __linux__
#include <sys/eventfd.h>
#endif
#include <fcntl.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace wbam::net {

// Level-triggered wakeup a poll loop sleeps on: eventfd where available,
// self-pipe elsewhere. wake() is async-signal-thin (one write syscall)
// and safe from any thread; clear() runs on the owning loop after poll
// reports the fd readable.
class WakeFd {
public:
    WakeFd() {
#ifdef __linux__
        fds_[0] = ::eventfd(0, EFD_NONBLOCK);
        if (fds_[0] >= 0) return;
#endif
        if (::pipe(fds_) == 0) {
            for (const int fd : fds_) {
                const int flags = ::fcntl(fd, F_GETFL, 0);
                ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
            }
        }
    }
    ~WakeFd() {
        if (fds_[0] >= 0) ::close(fds_[0]);
        if (fds_[1] >= 0) ::close(fds_[1]);
    }
    WakeFd(const WakeFd&) = delete;
    WakeFd& operator=(const WakeFd&) = delete;

    int poll_fd() const { return fds_[0]; }

    void wake() {
        const std::uint64_t one = 1;
        const int fd = fds_[1] >= 0 ? fds_[1] : fds_[0];
        if (fd < 0) return;
        [[maybe_unused]] const ssize_t n =
            ::write(fd, &one, fds_[1] >= 0 ? 1 : sizeof(one));
    }

    void clear() {
        if (fds_[0] < 0) return;
        std::uint8_t buf[256];
        while (::read(fds_[0], buf, sizeof(buf)) > 0) {
        }
    }

private:
    int fds_[2] = {-1, -1};  // eventfd uses [0] only
};

// MPSC command queue feeding a loop thread: any thread pushes, the owning
// loop drains. push() reports the empty -> non-empty transition so the
// producer wakes the consumer exactly once per batch (a non-empty queue
// already has a wake in flight that the owner has not consumed yet).
// drain(out) swaps the queue with the consumer's own container, so the two
// vectors trade places and keep their capacity: a steady-state loop turn
// allocates nothing. empty() reads a count kept exact under the lock, so
// the pre-poll check takes no lock.
template <typename T>
class Mailbox {
public:
    bool push(T item) {
        const std::lock_guard<std::mutex> guard(mutex_);
        items_.push_back(std::move(item));
        count_.store(items_.size());
        return items_.size() == 1;
    }

    // Replaces `out` (cleared first, outside the lock) with every queued
    // item, in push order.
    void drain(std::vector<T>& out) {
        out.clear();
        const std::lock_guard<std::mutex> guard(mutex_);
        out.swap(items_);
        count_.store(0);
    }

    bool empty() const { return count_.load() == 0; }

private:
    std::mutex mutex_;
    std::vector<T> items_;  // guarded by mutex_
    std::atomic<std::size_t> count_{0};  // items_.size(), stored under mutex_
};

}  // namespace wbam::net

#endif  // WBAM_NET_SHARD_HPP
