#include "harness/fig_report.hpp"

#include <cstdio>
#include <sstream>

namespace wbam::harness {

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

void append_double(std::ostringstream& out, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    out << buf;
}

}  // namespace

std::string FigReport::to_json() const {
    std::ostringstream out;
    out << "{\n";
    out << "  \"bench\": \"" << json_escape(bench) << "\",\n";
    out << "  \"name\": \"" << json_escape(name) << "\",\n";
    out << "  \"runtime\": \"" << json_escape(runtime) << "\",\n";
    out << "  \"groups\": " << groups << ",\n";
    out << "  \"group_size\": " << group_size << ",\n";
    out << "  \"payload_bytes\": " << payload << ",\n";
    if (driver_processes > 0) {
        out << "  \"distributed\": {\"driver_processes\": " << driver_processes
            << ", \"samples_streamed\": " << samples_streamed << "},\n";
    }
    if (workload == "kv") {
        out << "  \"workload\": {\"kind\": \"kv\", \"keys\": " << kv_keys
            << ", \"theta\": ";
        append_double(out, kv_theta);
        out << ", \"read_pct\": " << kv_read_pct
            << ", \"cross_pct\": " << kv_cross_pct << "},\n";
    }
    out << "  \"series\": [\n";
    for (std::size_t s = 0; s < series.size(); ++s) {
        const FigSeries& sr = series[s];
        out << "    {\"protocol\": \"" << json_escape(sr.protocol)
            << "\", \"dest_groups\": " << sr.dest_groups
            << ", \"points\": [\n";
        for (std::size_t p = 0; p < sr.points.size(); ++p) {
            const FigPoint& pt = sr.points[p];
            out << "      {\"clients\": " << pt.clients
                << ", \"throughput_ops_s\": ";
            append_double(out, pt.throughput_ops_s);
            out << ", \"mean_ms\": ";
            append_double(out, pt.mean_ms);
            out << ", \"p50_ms\": ";
            append_double(out, pt.p50_ms);
            out << ", \"p99_ms\": ";
            append_double(out, pt.p99_ms);
            out << ", \"ops\": " << pt.ops << "}"
                << (p + 1 < sr.points.size() ? "," : "") << "\n";
        }
        out << "    ]}" << (s + 1 < series.size() ? "," : "") << "\n";
    }
    out << "  ]";
    if (!stages.empty()) {
        out << ",\n  \"stages\": [\n";
        for (std::size_t i = 0; i < stages.size(); ++i) {
            const FigStage& st = stages[i];
            out << "    {\"name\": \"" << json_escape(st.name)
                << "\", \"count\": " << st.count << ", \"p50_ms\": ";
            append_double(out, st.p50_ms);
            out << ", \"p99_ms\": ";
            append_double(out, st.p99_ms);
            out << ", \"segment_ms\": ";
            append_double(out, st.segment_ms);
            out << "}" << (i + 1 < stages.size() ? "," : "") << "\n";
        }
        out << "  ]";
    }
    if (!metrics.empty()) {
        out << ",\n  \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            out << "\"" << json_escape(metrics[i].first)
                << "\": " << metrics[i].second
                << (i + 1 < metrics.size() ? ", " : "");
        }
        out << "}";
    }
    out << "\n}\n";
    return out.str();
}

bool FigReport::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "fig_report: cannot write %s\n", path.c_str());
        return false;
    }
    const std::string json = to_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    std::fclose(f);
    return ok;
}

}  // namespace wbam::harness
