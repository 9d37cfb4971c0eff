// Context wrapper that holds every outbound send until release(): the
// durability gate of a WAL-backed replica. ReplicaCore runs each handler
// under one, commits the log, then releases, so no message leaves the
// process before the records its handler appended are durable. Held sends
// leave in send order, each as its own frame, exactly as the handler made
// them; timers, the clock, the rng and charge() pass straight through.
//
// A handler that throws never reaches release(): its held sends are
// dropped with the context, which the peers' retries cover like any other
// lost message.
#ifndef WBAM_WAL_HOLD_CONTEXT_HPP
#define WBAM_WAL_HOLD_CONTEXT_HPP

#include <utility>
#include <vector>

#include "common/process.hpp"

namespace wbam::wal {

class HoldContext final : public Context {
public:
    explicit HoldContext(Context& inner) : inner_(inner) {}

    ProcessId self() const override { return inner_.self(); }
    TimePoint now() const override { return inner_.now(); }

    // send_many is inherited: the base default holds one send per
    // recipient, all sharing the one slice.
    void send(ProcessId to, BufferSlice bytes) override {
        held_.emplace_back(to, std::move(bytes));
    }

    TimerId set_timer(Duration delay) override { return inner_.set_timer(delay); }
    void cancel_timer(TimerId id) override { inner_.cancel_timer(id); }
    Rng& rng() override { return inner_.rng(); }
    void charge(Duration cpu_work) override { inner_.charge(cpu_work); }

    // Sends everything held so far, in send order.
    void release() {
        for (auto& [to, bytes] : held_) inner_.send(to, std::move(bytes));
        held_.clear();
    }

private:
    Context& inner_;
    std::vector<std::pair<ProcessId, BufferSlice>> held_;
};

}  // namespace wbam::wal

#endif  // WBAM_WAL_HOLD_CONTEXT_HPP
