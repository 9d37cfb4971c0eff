// Driver-side half of the benchmark measurement plane: counts issued and
// completed operations and accumulates completion samples over a
// measurement window, both into a local histogram and into a drainable
// queue of raw samples that ctrl::BenchDriver streams to the coordinator
// (SAMPLE messages, src/ctrl/). The driver decides when an op is complete
// (the paper's client-perceived latency metric, §II: every destination
// group has acked its delivery to the client) and reports it here with
// its issue time; this class keeps no per-op state.
#ifndef WBAM_CLIENT_LATENCY_SAMPLER_HPP
#define WBAM_CLIENT_LATENCY_SAMPLER_HPP

#include <mutex>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "stats/histogram.hpp"

namespace wbam::client {

// Thread-safe: the counters are read from outside the driver's loop
// thread while the run is live; under the simulator the uncontended lock
// is noise. latency() is a snapshot accessor for a quiesced run — read it
// after the world has shut down.
class LatencySampler {
public:
    void note_issue() {
        const std::lock_guard<std::mutex> guard(mutex_);
        ++issued_;
    }

    // One op issued at `issued` completed at `now`.
    void note_completion(TimePoint issued, TimePoint now) {
        const std::lock_guard<std::mutex> guard(mutex_);
        ++completed_total_;
        if (now >= window_start_ && now < window_end_) {
            ++completed_in_window_;
            const Duration sample = now - issued;
            latency_.record(sample);
            samples_.push_back(sample);
        }
    }

    // Latency samples are recorded for operations that COMPLETE within
    // [start, end).
    void set_window(TimePoint start, TimePoint end) {
        const std::lock_guard<std::mutex> guard(mutex_);
        window_start_ = start;
        window_end_ = end;
        completed_in_window_ = 0;
        latency_.clear();
        samples_.clear();
    }

    // Raw samples accumulated since the last drain (streamed to the
    // coordinator by the driver; the merged histogram then sees every
    // individual sample, so merged percentiles are exact).
    std::vector<Duration> drain_samples() {
        const std::lock_guard<std::mutex> guard(mutex_);
        std::vector<Duration> out;
        out.swap(samples_);
        return out;
    }

    const stats::Histogram& latency() const { return latency_; }
    std::uint64_t completed_in_window() const {
        const std::lock_guard<std::mutex> guard(mutex_);
        return completed_in_window_;
    }
    std::uint64_t completed_total() const {
        const std::lock_guard<std::mutex> guard(mutex_);
        return completed_total_;
    }
    // Issued but not yet completed.
    std::size_t outstanding() const {
        const std::lock_guard<std::mutex> guard(mutex_);
        return static_cast<std::size_t>(issued_ - completed_total_);
    }

private:
    mutable std::mutex mutex_;
    stats::Histogram latency_;
    std::vector<Duration> samples_;
    TimePoint window_start_ = 0;
    TimePoint window_end_ = time_never;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_in_window_ = 0;
    std::uint64_t completed_total_ = 0;
};

}  // namespace wbam::client

#endif  // WBAM_CLIENT_LATENCY_SAMPLER_HPP
