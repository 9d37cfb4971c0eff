// Write-ahead log unit tests: record codec round-trips, torn-write and
// truncated-tail recovery, corrupt-CRC rejection, group-commit semantics
// (discard_pending models the kill -9 window between append and commit),
// and a seeded crash-point fuzz that truncates a multi-record log at
// EVERY byte offset and asserts recovery always yields a clean prefix of
// the original records — never a partial or corrupted one.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "wal/crc32.hpp"
#include "wal/log.hpp"
#include "wal/records.hpp"

namespace wbam::wal {
namespace {

std::string temp_path(const std::string& tag) {
    static int counter = 0;
    return testing::TempDir() + "wal_test_" + tag + "_" +
           std::to_string(++counter) + ".wal";
}

Bytes read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    Bytes out;
    std::uint8_t buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.insert(out.end(), buf, buf + n);
    std::fclose(f);
    return out;
}

void write_file(const std::string& path, const Bytes& data) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    if (!data.empty()) {
        ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    }
    std::fclose(f);
}

TEST(Crc32, MatchesKnownVectors) {
    // Standard CRC-32 ("123456789" -> 0xcbf43926) and the empty string.
    const char* s = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xcbf43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(SyncMode, Parsing) {
    EXPECT_EQ(parse_sync_mode("off"), SyncMode::off);
    EXPECT_EQ(parse_sync_mode("group"), SyncMode::group_commit);
    EXPECT_EQ(parse_sync_mode("always"), SyncMode::always);
    EXPECT_FALSE(parse_sync_mode("sometimes").has_value());
    EXPECT_STREQ(to_string(SyncMode::group_commit), "group");
}

TEST(WalLog, RoundTripAcrossReopen) {
    const std::string path = temp_path("roundtrip");
    Bytes payload_bytes{0xde, 0xad, 0xbe, 0xef, 0x01};
    {
        Log log(path, SyncMode::always);
        ASSERT_TRUE(log.ok());
        log.append(1, Bytes{0x10, 0x11});
        log.append(2, Bytes{0x20}, BufferSlice(Bytes(payload_bytes)));
        log.append(3, Bytes{});  // empty body is legal (type byte only)
        EXPECT_EQ(log.stats().appends, 3u);
        EXPECT_GE(log.stats().fsyncs, 3u);  // always-mode: one per append
    }
    Log log(path, SyncMode::always);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.stats().records_recovered, 3u);
    EXPECT_EQ(log.stats().truncated_bytes, 0u);
    const auto& recs = log.recovered();
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].type, 1);
    EXPECT_EQ(recs[0].body.to_bytes(), (Bytes{0x10, 0x11}));
    EXPECT_EQ(recs[1].type, 2);
    EXPECT_EQ(recs[1].body.to_bytes(),
              (Bytes{0x20, 0xde, 0xad, 0xbe, 0xef, 0x01}));
    EXPECT_EQ(recs[2].type, 3);
    EXPECT_TRUE(recs[2].body.empty());
    std::remove(path.c_str());
}

TEST(WalLog, GroupCommitDurableOnlyAfterCommit) {
    const std::string path = temp_path("groupcommit");
    {
        Log log(path, SyncMode::group_commit);
        log.append(1, Bytes{0x01});
        log.commit();
        log.append(2, Bytes{0x02});
        // kill -9 between append and commit: the queued record dies.
        log.discard_pending();
    }
    {
        Log log(path, SyncMode::group_commit);
        ASSERT_EQ(log.recovered().size(), 1u);
        EXPECT_EQ(log.recovered()[0].type, 1);
    }
    std::remove(path.c_str());
}

TEST(WalLog, DestructorCommitsPending) {
    const std::string path = temp_path("dtor");
    {
        Log log(path, SyncMode::group_commit);
        log.append(7, Bytes{0x42});
        // No explicit commit: clean shutdown flushes.
    }
    Log log(path, SyncMode::group_commit);
    ASSERT_EQ(log.recovered().size(), 1u);
    EXPECT_EQ(log.recovered()[0].type, 7);
    std::remove(path.c_str());
}

TEST(WalLog, TornTailIsTruncatedAndStaysTruncated) {
    const std::string path = temp_path("torn");
    {
        Log log(path, SyncMode::always);
        log.append(1, Bytes{0xaa});
        log.append(2, Bytes{0xbb, 0xcc});
    }
    // Simulate a crash mid-write: a frame header promising more bytes
    // than the file holds.
    Bytes img = read_file(path);
    const Bytes torn{0x40, 0x00, 0x00, 0x00, 0x99, 0x99, 0x99};
    img.insert(img.end(), torn.begin(), torn.end());
    write_file(path, img);
    {
        Log log(path, SyncMode::always);
        EXPECT_EQ(log.recovered().size(), 2u);
        EXPECT_EQ(log.stats().truncated_bytes, torn.size());
        // Appending after recovery lands where the torn tail was cut.
        log.append(3, Bytes{0xdd});
    }
    Log log(path, SyncMode::always);
    EXPECT_EQ(log.recovered().size(), 3u);
    EXPECT_EQ(log.stats().truncated_bytes, 0u);
    std::remove(path.c_str());
}

TEST(WalLog, CorruptCrcCutsRecoveryAtTheBadFrame) {
    const std::string path = temp_path("crc");
    {
        Log log(path, SyncMode::always);
        log.append(1, Bytes{0x01, 0x02, 0x03});
        log.append(2, Bytes{0x04, 0x05, 0x06});
        log.append(3, Bytes{0x07});
    }
    Bytes img = read_file(path);
    // First frame: 4 (len) + 4 (crc) + 1 (type) + 3 (body) = 12 bytes.
    // Flip a body byte of the SECOND record.
    img[12 + 9] ^= 0xff;
    write_file(path, img);
    Log log(path, SyncMode::always);
    ASSERT_EQ(log.recovered().size(), 1u);
    EXPECT_EQ(log.recovered()[0].type, 1);
    // Everything from the bad frame on is gone (recovery cannot tell a
    // bit flip from a torn concurrent write; conservative prefix wins).
    EXPECT_GT(log.stats().truncated_bytes, 0u);
    std::remove(path.c_str());
}

TEST(WalLog, AppendIsMutedDuringReplay) {
    const std::string path = temp_path("mute");
    {
        Log log(path, SyncMode::always);
        log.append(1, Bytes{0x01});
    }
    {
        Log log(path, SyncMode::always);
        log.replay([&](std::uint8_t, const BufferSlice&) {
            log.append(9, Bytes{0x99});  // restore path re-runs mutations
        });
        log.commit();
    }
    Log log(path, SyncMode::always);
    EXPECT_EQ(log.recovered().size(), 1u);
    std::remove(path.c_str());
}

TEST(WalRecords, PaxosAndWatermarkCodecsRoundTrip) {
    const Ballot b{42, 7};
    EXPECT_EQ(decode_promised(BufferSlice(encode_promised(b))), b);

    const Bytes cmd{0x11, 0x22, 0x33};
    Bytes acc = encode_accepted_meta(9001, b, 0xabcdef01u);
    acc.insert(acc.end(), cmd.begin(), cmd.end());
    const AcceptedRecord ar = decode_accepted(BufferSlice(std::move(acc)));
    EXPECT_EQ(ar.slot, 9001u);
    EXPECT_EQ(ar.ballot, b);
    EXPECT_EQ(ar.about, 0xabcdef01u);
    EXPECT_EQ(ar.payload.to_bytes(), cmd);

    Bytes cho = encode_chosen_meta(17, 0x55u);
    cho.insert(cho.end(), cmd.begin(), cmd.end());
    const ChosenRecord cr = decode_chosen(BufferSlice(std::move(cho)));
    EXPECT_EQ(cr.slot, 17u);
    EXPECT_EQ(cr.about, 0x55u);
    EXPECT_EQ(cr.payload.to_bytes(), cmd);

    Bytes snap = encode_snapshot_meta(123);
    snap.insert(snap.end(), cmd.begin(), cmd.end());
    const SnapshotRecord sr = decode_snapshot(BufferSlice(std::move(snap)));
    EXPECT_EQ(sr.snap_upto, 123u);
    EXPECT_EQ(sr.state.to_bytes(), cmd);

    const DeliveredRecord d{Timestamp{77, 3}, 0xfeedbeefu};
    EXPECT_EQ(decode_delivered(BufferSlice(encode_delivered(d))), d);
}

// wbcast's delivered-floor record: one per floor raise, tag 9 on disk.
TEST(WalRecords, FloorCodecRoundTrips) {
    EXPECT_EQ(tag(RecordType::wb_floor), 9u);
    const Timestamp floor{41, -2};
    EXPECT_EQ(decode_floor(BufferSlice(encode_floor(floor))), floor);
    Bytes extra = encode_floor(floor);
    extra.push_back(0);
    EXPECT_THROW(decode_floor(BufferSlice(std::move(extra))),
                 codec::DecodeError);
}

// The crash-point fuzz: build a log of seeded random records, then for
// EVERY byte offset L of the on-disk image, present the first L bytes as
// the post-crash file and require that recovery yields an exact prefix
// of the original record sequence (plus that the reopened log reports
// precisely the bytes it discarded). A crash can tear at any byte; no
// tear may ever surface a record that was not fully written.
TEST(WalLog, TruncationAtEveryByteOffsetRecoversACleanPrefix) {
    const std::string base = temp_path("fuzz_base");
    std::mt19937_64 rng(0xc0ffee);
    std::vector<std::pair<std::uint8_t, Bytes>> originals;
    {
        Log log(base, SyncMode::always);
        for (int i = 0; i < 24; ++i) {
            const auto type = static_cast<std::uint8_t>(1 + rng() % 7);
            Bytes meta(rng() % 40, static_cast<std::uint8_t>(rng()));
            Bytes payload(rng() % 3 == 0 ? 0 : rng() % 64,
                          static_cast<std::uint8_t>(rng()));
            Bytes body = meta;
            body.insert(body.end(), payload.begin(), payload.end());
            originals.emplace_back(type, std::move(body));
            log.append(type, std::move(meta), BufferSlice(std::move(payload)));
        }
    }
    const Bytes img = read_file(base);
    ASSERT_GT(img.size(), 24u * 9u);

    // Record boundaries let us assert the exact prefix length recovered.
    std::vector<std::size_t> boundaries{0};
    for (const auto& [type, body] : originals)
        boundaries.push_back(boundaries.back() + 8 + 1 + body.size());
    ASSERT_EQ(boundaries.back(), img.size());

    const std::string path = temp_path("fuzz_cut");
    for (std::size_t cut = 0; cut <= img.size(); ++cut) {
        write_file(path, Bytes(img.begin(), img.begin() + cut));
        Log log(path, SyncMode::off);
        ASSERT_TRUE(log.ok());
        // Number of complete records below the cut.
        std::size_t expect = 0;
        while (expect + 1 < boundaries.size() && boundaries[expect + 1] <= cut)
            ++expect;
        const auto& recs = log.recovered();
        ASSERT_EQ(recs.size(), expect) << "cut at byte " << cut;
        for (std::size_t i = 0; i < expect; ++i) {
            EXPECT_EQ(recs[i].type, originals[i].first) << "cut " << cut;
            EXPECT_EQ(recs[i].body.to_bytes(), originals[i].second)
                << "cut " << cut << " record " << i;
        }
        EXPECT_EQ(log.stats().truncated_bytes, cut - boundaries[expect])
            << "cut at byte " << cut;
    }
    std::remove(base.c_str());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace wbam::wal
