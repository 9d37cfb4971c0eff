// Write-ahead log: length-prefixed, CRC-framed records appended to a
// single file per process.
//
// Record framing (all integers little-endian):
//
//     [len: u32][crc: u32][type: u8][body: len-1 bytes]
//
// `len` counts the type byte plus the body; `crc` is CRC-32
// (crc32.hpp) over type+body. A record is only as durable as its frame:
// on open the log scans from the front and stops at the first record
// whose frame is short, oversized or fails its checksum — everything
// after that point is a torn tail from a crash mid-write and is
// truncated away. Replay therefore never sees a partial record.
//
// Zero-copy append: a record is queued as an encoded meta part plus an
// optional retained `BufferSlice` payload (e.g. the command bytes already
// aliasing the wire image). Nothing is concatenated; the queued parts go
// to the kernel in one bounded writev per commit(). Sync modes:
//
//   off          write on commit, never fsync (crash durability = none)
//   group_commit write + one fsync per commit() — the group-commit mode.
//                A replica commits once per handler, just before the
//                handler's held sends are released (wal/hold_context.hpp),
//                so durability costs one fsync per handler, not per record
//   always       every append() commits and fsyncs individually
//
// Replay: open() recovers the valid record prefix into memory (slices
// aliasing one frozen boot image). replay(fn) hands each record to `fn`
// and marks the log in-replay for the duration, during which append() is
// a no-op — the restore paths can re-run the exact mutation code that
// normally logs, without re-appending history to its own log.
#ifndef WBAM_WAL_LOG_HPP
#define WBAM_WAL_LOG_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace wbam::wal {

enum class SyncMode : std::uint8_t { off, group_commit, always };

// Accepts the CLI spellings: "off", "group", "always".
std::optional<SyncMode> parse_sync_mode(std::string_view s);
const char* to_string(SyncMode mode);

struct LogStats {
    std::uint64_t appends = 0;           // records queued
    std::uint64_t commits = 0;           // writev flushes issued
    std::uint64_t fsyncs = 0;
    std::uint64_t bytes_written = 0;     // frame + body bytes hitting write
    std::uint64_t records_recovered = 0; // valid records found at open
    std::uint64_t truncated_bytes = 0;   // torn tail discarded at open
};

struct Record {
    std::uint8_t type = 0;
    BufferSlice body;  // aliases the boot image read at open
};

class Log {
public:
    Log(std::string path, SyncMode mode);
    ~Log();

    Log(const Log&) = delete;
    Log& operator=(const Log&) = delete;

    // False when the file could not be opened; append/commit are then
    // no-ops (the process runs, just without durability).
    bool ok() const { return fd_ >= 0; }
    const std::string& path() const { return path_; }
    SyncMode sync_mode() const { return mode_; }

    // Queues one record: `meta` (small, Writer-encoded) followed by the
    // retained `payload` view, appended verbatim — no concatenation copy.
    // In SyncMode::always the record is written and fsynced immediately.
    // No-op while a replay() is in progress.
    void append(std::uint8_t type, Bytes meta, BufferSlice payload = {});

    // Flushes every queued record with one bounded writev (plus one fsync
    // in group_commit mode). Safe to call with nothing pending.
    void commit();

    // Hands each record recovered at open to `fn`, in log order.
    void replay(const std::function<void(std::uint8_t type,
                                         const BufferSlice& body)>& fn);
    bool in_replay() const { return in_replay_; }

    // Drops queued-but-uncommitted records without writing them — what a
    // kill -9 between append and commit does. Test hook for the simulated
    // crash schedules; never called on the production path.
    void discard_pending() { pending_.clear(); }

    // Records appended but not yet committed.
    std::size_t pending_records() const { return pending_.size(); }

    const std::vector<Record>& recovered() const { return recovered_; }
    const LogStats& stats() const { return stats_; }

private:
    struct Pending {
        Bytes head;          // [len][crc][type][meta]
        BufferSlice payload; // retained view, written after head
    };

    void recover();
    void write_pending();

    std::string path_;
    SyncMode mode_;
    int fd_ = -1;
    bool in_replay_ = false;
    Buffer boot_image_;
    std::vector<Record> recovered_;
    std::vector<Pending> pending_;
    LogStats stats_;
};

}  // namespace wbam::wal

#endif  // WBAM_WAL_LOG_HPP
