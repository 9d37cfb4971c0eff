#include "harness/topology_spec.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace wbam::harness {

namespace {

bool parse_int(std::string_view s, long long* out) {
    if (s.empty()) return false;
    long long value = 0;
    std::size_t i = 0;
    const bool neg = s[0] == '-';
    if (neg) i = 1;
    if (i == s.size()) return false;
    for (; i < s.size(); ++i) {
        if (s[i] < '0' || s[i] > '9') return false;
        value = value * 10 + (s[i] - '0');
        if (value > (std::int64_t{1} << 60)) return false;
    }
    *out = neg ? -value : value;
    return true;
}

std::vector<std::string_view> split_ws(std::string_view line) {
    std::vector<std::string_view> out;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
        std::size_t j = i;
        while (j < line.size() && !std::isspace(static_cast<unsigned char>(line[j]))) ++j;
        if (j > i) out.push_back(line.substr(i, j - i));
        i = j;
    }
    return out;
}

bool fail(std::string* error, int lineno, const std::string& what) {
    if (error != nullptr)
        *error = "line " + std::to_string(lineno) + ": " + what;
    return false;
}

}  // namespace

std::optional<Duration> parse_duration(std::string_view s) {
    if (s.empty()) return std::nullopt;
    // Split the numeric prefix (integer or decimal) from the unit suffix.
    std::size_t i = 0;
    while (i < s.size() &&
           ((s[i] >= '0' && s[i] <= '9') || s[i] == '.')) ++i;
    const std::string_view num = s.substr(0, i);
    const std::string_view unit = s.substr(i);
    if (num.empty() || num == ".") return std::nullopt;
    if (num.find('.') != num.rfind('.')) return std::nullopt;
    double scale = 1;  // bare count = nanoseconds
    if (unit == "ns" || unit.empty()) scale = 1;
    else if (unit == "us") scale = 1e3;
    else if (unit == "ms") scale = 1e6;
    else if (unit == "s") scale = 1e9;
    else return std::nullopt;
    // Parse the decimal by hand: integer part + fraction, exactly scaled.
    const std::size_t dot = num.find('.');
    long long whole = 0;
    if (dot != 0 && !parse_int(num.substr(0, dot), &whole)) return std::nullopt;
    double frac = 0;
    if (dot != std::string_view::npos) {
        const std::string_view digits = num.substr(dot + 1);
        if (digits.empty() && dot == 0) return std::nullopt;
        double place = 0.1;
        for (const char c : digits) {
            if (c < '0' || c > '9') return std::nullopt;
            frac += (c - '0') * place;
            place /= 10;
        }
    }
    const double ns = (static_cast<double>(whole) + frac) * scale;
    if (ns > 9.2e18) return std::nullopt;
    return static_cast<Duration>(ns + 0.5);
}

std::string format_duration(Duration d) {
    if (d != 0) {
        if (d % 1'000'000'000 == 0) return std::to_string(d / 1'000'000'000) + "s";
        if (d % 1'000'000 == 0) return std::to_string(d / 1'000'000) + "ms";
        if (d % 1'000 == 0) return std::to_string(d / 1'000) + "us";
    }
    return std::to_string(d) + "ns";
}

std::optional<TopologySpec> TopologySpec::parse(std::string_view text,
                                               std::string* error) {
    TopologySpec spec;
    bool saw_header = false;
    bool saw_regions = false;
    std::istringstream in{std::string(text)};
    std::string raw;
    int lineno = 0;
    std::vector<bool> node_seen;
    // Sizes the owd/node tables the first time a region-dependent line (or
    // the end of the file) needs them. Returns why it cannot, or nullptr.
    auto ensure_shape = [&]() -> const char* {
        if (!spec.owd.empty()) return nullptr;
        if (spec.groups <= 0 || spec.group_size <= 0 || !saw_regions)
            return "groups/group_size/regions must precede every owd/node "
                   "line";
        if (spec.regions > spec.num_processes())
            return "regions exceeds the process count";
        spec.owd.assign(static_cast<std::size_t>(spec.regions),
                        std::vector<Duration>(
                            static_cast<std::size_t>(spec.regions), 0));
        spec.region_of.assign(static_cast<std::size_t>(spec.num_processes()),
                              0);
        spec.endpoints.assign(static_cast<std::size_t>(spec.num_processes()),
                              {});
        node_seen.assign(static_cast<std::size_t>(spec.num_processes()),
                         false);
        return nullptr;
    };
    while (std::getline(in, raw)) {
        ++lineno;
        const std::size_t hash = raw.find('#');
        if (hash != std::string::npos) raw.resize(hash);
        const auto tok = split_ws(raw);
        if (tok.empty()) continue;
        if (!saw_header) {
            if (tok.size() != 2 || tok[0] != "wbam-topology" || tok[1] != "v1") {
                fail(error, lineno, "expected header 'wbam-topology v1'");
                return std::nullopt;
            }
            saw_header = true;
            continue;
        }
        long long n = 0;
        if (tok[0] == "groups" || tok[0] == "group_size" ||
            tok[0] == "clients" || tok[0] == "staggered_leaders" ||
            tok[0] == "regions") {
            if (tok.size() != 2 || !parse_int(tok[1], &n) || n < 0) {
                fail(error, lineno, "expected '" + std::string(tok[0]) + " N'");
                return std::nullopt;
            }
            const long long max = tok[0] == "groups"       ? max_groups
                                  : tok[0] == "group_size" ? max_group_size
                                  : tok[0] == "clients"    ? max_clients
                                  : tok[0] == "regions"    ? max_regions
                                  : std::numeric_limits<long long>::max();
            if (n > max) {
                fail(error, lineno,
                     std::string(tok[0]) + " must be <= " +
                         std::to_string(max));
                return std::nullopt;
            }
            // The owd/node tables are sized from these counts the first
            // time an owd/node line appears; growing the shape afterwards
            // would leave them undersized.
            if (!spec.owd.empty()) {
                std::string what(tok[0]);
                what += " must precede every owd/node line";
                fail(error, lineno, what);
                return std::nullopt;
            }
            if (tok[0] == "groups") spec.groups = static_cast<int>(n);
            else if (tok[0] == "group_size") spec.group_size = static_cast<int>(n);
            else if (tok[0] == "clients") spec.clients = static_cast<int>(n);
            else if (tok[0] == "staggered_leaders") spec.staggered_leaders = n != 0;
            else {
                if (n < 1) {
                    fail(error, lineno, "regions must be >= 1");
                    return std::nullopt;
                }
                spec.regions = static_cast<int>(n);
                saw_regions = true;
            }
        } else if (tok[0] == "jitter_frac") {
            if (tok.size() != 2) {
                fail(error, lineno, "expected 'jitter_frac F'");
                return std::nullopt;
            }
            try {
                spec.jitter_frac = std::stod(std::string(tok[1]));
            } catch (...) {
                fail(error, lineno, "bad jitter_frac value");
                return std::nullopt;
            }
            if (spec.jitter_frac < 0 || spec.jitter_frac > 1) {
                fail(error, lineno, "jitter_frac outside [0, 1]");
                return std::nullopt;
            }
        } else if (tok[0] == "owd") {
            long long a = 0, b = 0;
            std::optional<Duration> d;
            if (tok.size() != 4 || !parse_int(tok[1], &a) ||
                !parse_int(tok[2], &b) || !(d = parse_duration(tok[3]))) {
                fail(error, lineno, "expected 'owd FROM TO DELAY'");
                return std::nullopt;
            }
            if (const char* why = ensure_shape()) {
                fail(error, lineno, why);
                return std::nullopt;
            }
            if (a < 0 || a >= spec.regions || b < 0 || b >= spec.regions) {
                fail(error, lineno, "owd region outside [0, regions)");
                return std::nullopt;
            }
            spec.owd[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
                *d;
        } else if (tok[0] == "node") {
            long long pid = 0, region = 0;
            if (tok.size() != 6 || !parse_int(tok[1], &pid) ||
                tok[2] != "region" || !parse_int(tok[3], &region) ||
                tok[4] != "addr") {
                fail(error, lineno,
                     "expected 'node PID region R addr HOST:PORT'");
                return std::nullopt;
            }
            if (const char* why = ensure_shape()) {
                fail(error, lineno, why);
                return std::nullopt;
            }
            if (pid < 0 || pid >= spec.num_processes()) {
                fail(error, lineno, "node pid outside the topology");
                return std::nullopt;
            }
            if (region < 0 || region >= spec.regions) {
                fail(error, lineno, "node region outside [0, regions)");
                return std::nullopt;
            }
            const auto ep = net::parse_cluster(tok[5]);
            if (!ep || ep->endpoints.size() != 1) {
                fail(error, lineno, "malformed node address");
                return std::nullopt;
            }
            const auto i = static_cast<std::size_t>(pid);
            if (node_seen[i]) {
                fail(error, lineno, "duplicate node line for this pid");
                return std::nullopt;
            }
            node_seen[i] = true;
            spec.region_of[i] = static_cast<int>(region);
            spec.endpoints[i] = ep->endpoints[0];
        } else {
            fail(error, lineno,
                 "unknown directive '" + std::string(tok[0]) + "'");
            return std::nullopt;
        }
    }
    if (!saw_header) {
        fail(error, 1, "empty topology (missing 'wbam-topology v1' header)");
        return std::nullopt;
    }
    if (spec.groups <= 0 || spec.group_size <= 0 || spec.group_size % 2 == 0) {
        fail(error, lineno, "groups/group_size missing or invalid");
        return std::nullopt;
    }
    if (!saw_regions) {
        fail(error, lineno, "regions line missing");
        return std::nullopt;
    }
    if (const char* why = ensure_shape()) {
        fail(error, lineno, why);
        return std::nullopt;
    }
    for (int p = 0; p < spec.num_processes(); ++p) {
        if (!node_seen[static_cast<std::size_t>(p)]) {
            fail(error, lineno,
                 "missing node line for pid " + std::to_string(p));
            return std::nullopt;
        }
    }
    return spec;
}

std::optional<TopologySpec> TopologySpec::load(const std::string& path,
                                               std::string* error) {
    std::ifstream f(path);
    if (!f) {
        if (error != nullptr) *error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream text;
    text << f.rdbuf();
    auto spec = parse(text.str(), error);
    if (!spec && error != nullptr) *error = path + ": " + *error;
    return spec;
}

std::string TopologySpec::format() const {
    std::ostringstream out;
    out << "wbam-topology v1\n";
    out << "groups " << groups << "\n";
    out << "group_size " << group_size << "\n";
    out << "clients " << clients << "\n";
    out << "staggered_leaders " << (staggered_leaders ? 1 : 0) << "\n";
    out << "regions " << regions << "\n";
    if (jitter_frac > 0) out << "jitter_frac " << jitter_frac << "\n";
    for (int a = 0; a < regions; ++a)
        for (int b = 0; b < regions; ++b) {
            const Duration d = owd[static_cast<std::size_t>(a)]
                                  [static_cast<std::size_t>(b)];
            if (d != 0)
                out << "owd " << a << " " << b << " " << format_duration(d)
                    << "\n";
        }
    for (int p = 0; p < num_processes(); ++p) {
        const auto i = static_cast<std::size_t>(p);
        out << "node " << p << " region " << region_of[i] << " addr "
            << endpoints[i].host << ":" << endpoints[i].port << "\n";
    }
    return out.str();
}

bool TopologySpec::save(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << format();
    return static_cast<bool>(f);
}

TopologySpec TopologySpec::make_grouped(int groups, int group_size,
                                        int clients, int regions,
                                        Duration local, Duration cross,
                                        std::uint16_t base_port) {
    TopologySpec spec;
    spec.groups = groups;
    spec.group_size = group_size;
    spec.clients = clients;
    spec.regions = regions;
    spec.owd.assign(static_cast<std::size_t>(regions),
                    std::vector<Duration>(static_cast<std::size_t>(regions),
                                          cross));
    for (int r = 0; r < regions; ++r)
        spec.owd[static_cast<std::size_t>(r)][static_cast<std::size_t>(r)] =
            local;
    const Topology topo(groups, group_size, clients);
    spec.region_of.assign(static_cast<std::size_t>(spec.num_processes()), 0);
    spec.endpoints.assign(static_cast<std::size_t>(spec.num_processes()), {});
    for (ProcessId p = 0; p < topo.num_replicas(); ++p)
        spec.region_of[static_cast<std::size_t>(p)] =
            topo.group_of(p) % regions;
    for (int c = 0; c < clients; ++c)
        spec.region_of[static_cast<std::size_t>(topo.client(c))] = c % regions;
    for (int p = 0; p < spec.num_processes(); ++p)
        spec.endpoints[static_cast<std::size_t>(p)] = net::Endpoint{
            "127.0.0.1", static_cast<std::uint16_t>(base_port + p)};
    return spec;
}

}  // namespace wbam::harness
