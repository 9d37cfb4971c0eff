// Runtime-agnostic process model. Every protocol participant (replica,
// client, workload driver) implements Process and is driven by a runtime
// (the discrete-event simulator sim::World or the TCP runtime
// net::NetWorld) through Context. Handlers run single-threaded per process
// in both runtimes.
//
// The wire path is zero-copy: senders hand the runtime a BufferSlice view
// of an immutable ref-counted Buffer; runtimes retain the slice (in-flight
// events and outbound send queues hold slices, not byte vectors) and hand
// the same storage to every recipient of a fan-out.
#ifndef WBAM_COMMON_PROCESS_HPP
#define WBAM_COMMON_PROCESS_HPP

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

namespace wbam {

using TimerId = std::uint64_t;
inline constexpr TimerId invalid_timer = 0;

class Context {
public:
    virtual ~Context() = default;

    virtual ProcessId self() const = 0;
    virtual TimePoint now() const = 0;

    // Asynchronous, reliable, FIFO point-to-point send. The runtime shares
    // the slice's storage; the caller must not assume when it is released.
    // Self-sends are delivered with zero network delay (but still
    // asynchronously, never re-entrantly).
    virtual void send(ProcessId to, BufferSlice bytes) = 0;

    // Fan-out send of one buffer to several recipients; every recipient
    // shares the underlying storage. The default retains the slice once per
    // extra recipient (refcount bumps only) and moves it into the final
    // send instead of making a redundant extra retain.
    virtual void send_many(const std::vector<ProcessId>& to, BufferSlice bytes) {
        if (to.empty()) return;
        for (std::size_t i = 0; i + 1 < to.size(); ++i) send(to[i], bytes);
        send(to.back(), std::move(bytes));
    }

    // One-shot timer; fires on_timer(id) after `delay` unless cancelled.
    virtual TimerId set_timer(Duration delay) = 0;
    virtual void cancel_timer(TimerId id) = 0;

    // Per-process deterministic random stream.
    virtual Rng& rng() = 0;

    // Accounts additional CPU work performed by the current handler (used
    // by the benchmark cost model; see sim::CpuModel). Ignored by runtimes
    // without a cost model.
    virtual void charge(Duration cpu_work) { (void)cpu_work; }
};

class Process {
public:
    virtual ~Process() = default;

    virtual void on_start(Context& ctx) = 0;
    // `bytes` aliases the sender's frozen buffer; decode in place. Slices
    // the handler keeps (or subslices it cuts) stay valid indefinitely.
    virtual void on_message(Context& ctx, ProcessId from,
                            const BufferSlice& bytes) = 0;
    virtual void on_timer(Context& ctx, TimerId id) = 0;
};

}  // namespace wbam

#endif  // WBAM_COMMON_PROCESS_HPP
