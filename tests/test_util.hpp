// Shared helpers for protocol tests: random workload injection and the
// wire-level invariant monitor for the white-box protocol (Figure 6).
#ifndef WBAM_TESTS_TEST_UTIL_HPP
#define WBAM_TESTS_TEST_UTIL_HPP

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "harness/cluster.hpp"
#include "wal/log.hpp"
#include "wbcast/messages.hpp"

namespace wbam::testutil {

// Schedules `messages` random multicasts across [0, window) from random
// clients to random destination sets of size [1, max_dests].
inline void random_workload(harness::Cluster& c, Rng& rng, int messages,
                            Duration window, int max_dests,
                            TimePoint start = 0) {
    const int groups = c.topo().num_groups();
    const int clients = c.topo().num_clients();
    for (int i = 0; i < messages; ++i) {
        const auto t = start + static_cast<TimePoint>(rng.next_below(
            static_cast<std::uint64_t>(window)));
        const int client = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(clients)));
        const int ndest = 1 + static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(std::min(max_dests, groups))));
        std::vector<GroupId> dests;
        for (int d = 0; d < ndest; ++d)
            dests.push_back(static_cast<GroupId>(
                rng.next_below(static_cast<std::uint64_t>(groups))));
        c.multicast_at(t, client, std::move(dests), Bytes{0x42});
    }
}

// A row's name as a gtest parameter name (to_string()'s "FT-Skeen" is not
// one).
inline std::string row_name(harness::ProtocolKind kind) {
    switch (kind) {
        case harness::ProtocolKind::skeen: return "Skeen";
        case harness::ProtocolKind::ftskeen: return "FtSkeen";
        case harness::ProtocolKind::fastcast: return "FastCast";
        case harness::ProtocolKind::wbcast: return "Wbcast";
    }
    return "Unknown";
}

// One WAL per replica in a fresh temp directory named after `tag` (start
// it with the test binary's name: binaries run in parallel), reopenable
// across a simulated kill. Declare it before the Cluster: replicas hold
// raw pointers into `logs`.
struct WalSet {
    std::string dir;
    std::vector<std::unique_ptr<wal::Log>> logs;

    WalSet(int replicas, const std::string& tag,
           wal::SyncMode mode = wal::SyncMode::group_commit)
        : mode_(mode) {
        static int counter = 0;
        dir = testing::TempDir() + tag + "_" + std::to_string(++counter);
        // A run that died before its destructor leaves WAL files here; a
        // fresh replica must never replay them as its own.
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        for (int p = 0; p < replicas; ++p)
            logs.push_back(std::make_unique<wal::Log>(path(p), mode_));
    }
    ~WalSet() {
        logs.clear();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
    WalSet(const WalSet&) = delete;
    WalSet& operator=(const WalSet&) = delete;

    std::string path(ProcessId p) const {
        return dir + "/p" + std::to_string(p) + ".wal";
    }
    wal::Log* log(ProcessId p) { return logs[static_cast<std::size_t>(p)].get(); }

    // The kill -9 + reboot of process p: drop what it appended but never
    // committed, close the file and open a fresh Log on the durable prefix.
    void kill_and_reopen(ProcessId p) {
        auto& log = logs[static_cast<std::size_t>(p)];
        log->discard_pending();
        log.reset();
        log = std::make_unique<wal::Log>(path(p), mode_);
    }

    // Hands every replica its own log (ClusterConfig::tune_replica).
    void attach(harness::ClusterConfig& cfg) {
        cfg.tune_replica = [this](ProcessId p, ReplicaConfig& rc) {
            rc.wal = log(p);
        };
    }

private:
    wal::SyncMode mode_;
};

// Snoops every wire message and checks the stated invariants of the
// white-box protocol (Figure 6 of the paper):
//   Invariant 1 : one local timestamp per (message, group, ballot) ACCEPT
//   Invariant 3a: DELIVERs within a group agree on LocalTS
//   Invariant 3b: DELIVERs anywhere agree on GlobalTS
//   Invariant 4 : distinct messages never share a global timestamp
class WbcastInvariantMonitor {
public:
    void attach(sim::World& world, Topology topo) {
        topo_ = std::move(topo);
        world.set_send_hook([this](const sim::SendRecord& rec,
                                   const BufferSlice& bytes) { inspect(rec, bytes); });
    }

    bool ok() const { return violations_.empty(); }
    std::string summary() const {
        std::ostringstream os;
        os << violations_.size() << " invariant violation(s)";
        for (std::size_t i = 0; i < violations_.size() && i < 5; ++i)
            os << "\n  - " << violations_[i];
        return os.str();
    }

private:
    void inspect(const sim::SendRecord& rec, const BufferSlice& bytes) {
        if (rec.module != static_cast<std::uint8_t>(codec::Module::proto))
            return;
        try {
            codec::EnvelopeView env(bytes);
            switch (static_cast<wbcast::MsgType>(env.type)) {
                case wbcast::MsgType::accept: {
                    const auto a = wbcast::AcceptMsg::decode(env.body);
                    check_accept(a);
                    return;
                }
                case wbcast::MsgType::deliver: {
                    const auto d = wbcast::DeliverMsg::decode(env.body);
                    check_deliver(d, topo_.group_of(rec.from));
                    return;
                }
                default:
                    return;
            }
        } catch (const codec::DecodeError&) {
            // Another protocol's messages (monitor reused across suites).
        }
    }

    void check_accept(const wbcast::AcceptMsg& a) {
        const auto key = std::make_tuple(a.msg.id, a.from_group, a.ballot);
        const auto [it, inserted] = accept_lts_.try_emplace(key, a.lts);
        if (!inserted && it->second != a.lts)
            violations_.push_back("Invariant 1: two ACCEPT timestamps for one "
                                  "(message, ballot)");
    }

    void check_deliver(const wbcast::DeliverMsg& d, GroupId group) {
        const auto lkey = std::make_pair(d.msg.id, group);
        const auto [lit, lnew] = deliver_lts_.try_emplace(lkey, d.lts);
        if (!lnew && lit->second != d.lts)
            violations_.push_back("Invariant 3a: group disagrees on LocalTS");
        const auto [git, gnew] = deliver_gts_.try_emplace(d.msg.id, d.gts);
        if (!gnew && git->second != d.gts)
            violations_.push_back("Invariant 3b: system disagrees on GlobalTS");
        const auto [oit, onew] = gts_owner_.try_emplace(d.gts, d.msg.id);
        if (!onew && oit->second != d.msg.id)
            violations_.push_back("Invariant 4: two messages share a gts");
    }

    Topology topo_;
    std::map<std::tuple<MsgId, GroupId, Ballot>, Timestamp> accept_lts_;
    std::map<std::pair<MsgId, GroupId>, Timestamp> deliver_lts_;
    std::map<MsgId, Timestamp> deliver_gts_;
    std::map<Timestamp, MsgId> gts_owner_;
    std::vector<std::string> violations_;
};

}  // namespace wbam::testutil

#endif  // WBAM_TESTS_TEST_UTIL_HPP
