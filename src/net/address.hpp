// Cluster bootstrap addressing for the TCP runtime: every ProcessId of the
// Topology maps to one host:port endpoint. The map is static for a run
// (like the Topology itself); reconnects re-dial the same endpoint.
#ifndef WBAM_NET_ADDRESS_HPP
#define WBAM_NET_ADDRESS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace wbam::net {

struct Endpoint {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
};

// ProcessId -> endpoint, indexed densely like the Topology's ids.
struct ClusterMap {
    std::vector<Endpoint> endpoints;

    const Endpoint& of(ProcessId id) const {
        return endpoints[static_cast<std::size_t>(id)];
    }
    bool contains(ProcessId id) const {
        return id >= 0 && static_cast<std::size_t>(id) < endpoints.size();
    }
};

// Inverse of parse_cluster: "host:port,host:port,..." in id order.
// format_cluster(parse_cluster(s)) == s for every well-formed s.
inline std::string format_cluster(const ClusterMap& map) {
    std::string out;
    for (std::size_t i = 0; i < map.endpoints.size(); ++i) {
        if (i > 0) out += ',';
        out += map.endpoints[i].host;
        out += ':';
        out += std::to_string(map.endpoints[i].port);
    }
    return out;
}

// Parses "host:port,host:port,..." (one entry per ProcessId, in id order).
// Returns nullopt on any malformed entry.
inline std::optional<ClusterMap> parse_cluster(std::string_view spec) {
    ClusterMap map;
    // A trailing comma would silently drop an endpoint from a generated
    // list; reject it like any other malformed entry.
    if (!spec.empty() && spec.back() == ',') return std::nullopt;
    while (!spec.empty()) {
        const std::size_t comma = spec.find(',');
        std::string_view entry = spec.substr(0, comma);
        spec = comma == std::string_view::npos ? std::string_view{}
                                               : spec.substr(comma + 1);
        const std::size_t colon = entry.rfind(':');
        if (colon == std::string_view::npos || colon == 0 ||
            colon + 1 >= entry.size())
            return std::nullopt;
        unsigned long port = 0;
        for (const char c : entry.substr(colon + 1)) {
            if (c < '0' || c > '9') return std::nullopt;
            port = port * 10 + static_cast<unsigned long>(c - '0');
            if (port > 65535) return std::nullopt;
        }
        map.endpoints.push_back(Endpoint{std::string(entry.substr(0, colon)),
                                         static_cast<std::uint16_t>(port)});
    }
    if (map.endpoints.empty()) return std::nullopt;
    return map;
}

}  // namespace wbam::net

#endif  // WBAM_NET_ADDRESS_HPP
