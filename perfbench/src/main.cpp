// perfbench: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch-dir <dir>] [--spans-out <file>]
//
// Prints human notes, then as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status 0 when the run validated, 1 when it did not, 2 on bad usage.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch-dir <dir>] "
                 "[--spans-out <file>]\nworkloads:",
                 why);
    for (const std::string& w : perfbench::workload_names())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

// Confines the process, and every thread it starts later, to the highest
// CPU it may use. Spread over all CPUs of a shared VM, each message hop of
// the loopback cluster wakes a halted vCPU, and the hypervisor's wake
// latency swung throughput 2.5x between runs; on one CPU runs agree within
// a few percent. Throughput then measures one core's capacity, and latency
// includes the run-queue wait on that core.
void pin_to_one_cpu() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
        return;
    }
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::atoi(v.c_str());
        } else if (a == "--trace") {
            opt.trace = v == "1";
        } else if (a == "--scratch-dir") {
            opt.scratch_dir = v;
        } else if (a == "--spans-out") {
            opt.spans_out = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }
    if (!have_workload) return usage("--workload is required");
    if (opt.seconds < 1 || opt.seconds > 600) return usage("--seconds out of range");

    pin_to_one_cpu();
    perfbench::Outcome out;
    try {
        out = perfbench::run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    for (const std::string& p : out.problems)
        std::printf("FAILED %s\n", p.c_str());
    for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const perfbench::Metric& m = out.metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    return out.correct ? 0 : 1;
}
