// WAL record tags and the codec for the protocol-agnostic record bodies
// (paxos log entries, delivery watermarks and GC floors — everything
// expressible in common/types.hpp vocabulary). Protocol-specific records
// (wbcast's replicated-entry snapshots) are encoded by their own module;
// the wal layer treats those bodies as opaque bytes.
//
// The accepted/chosen records carry their command payload as a raw
// suffix: the encoder writes a small meta prefix and the payload rides
// along as a retained BufferSlice (Log::append's second part), so the
// hot path appends without copying command bytes. Decoding aliases the
// log's boot image the same way.
#ifndef WBAM_WAL_RECORDS_HPP
#define WBAM_WAL_RECORDS_HPP

#include <cstdint>

#include "codec/reader.hpp"
#include "codec/writer.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"

namespace wbam::wal {

// Record type tags (the framing `type` byte). Stable on disk: append
// only, never renumber.
enum class RecordType : std::uint8_t {
    paxos_promised = 1,  // highest promised ballot
    paxos_accepted = 2,  // phase-2 accepted (slot, ballot, command)
    paxos_chosen = 3,    // chosen/learned (slot, command)
    paxos_snapshot = 4,  // installed catch-up snapshot (snap_upto, state)
    watermark = 5,       // delivery watermark (max delivered gts)
    wb_entry = 6,        // wbcast replicated entry (opaque EntryState body)
    wb_status = 7,       // wbcast ballots + clock (opaque body)
    app_delivered = 8,   // application-level delivery record (bench shim)
    wb_floor = 9,        // wbcast delivered floor: every delivered entry at
                         // or below it is a payload stub after replay
};

inline constexpr std::uint8_t tag(RecordType t) {
    return static_cast<std::uint8_t>(t);
}

// --- promised -----------------------------------------------------------

inline Bytes encode_promised(const Ballot& b) {
    codec::Writer w;
    w.u64(b.round);
    w.zigzag(b.proc);
    return std::move(w).take();
}

inline Ballot decode_promised(const BufferSlice& body) {
    codec::Reader r(body);
    Ballot b;
    b.round = r.u64();
    b.proc = static_cast<ProcessId>(r.zigzag());
    r.expect_done();
    return b;
}

// --- accepted -----------------------------------------------------------

struct AcceptedRecord {
    std::uint64_t slot = 0;
    Ballot ballot;
    MsgId about = invalid_msg;
    BufferSlice payload;  // command data; aliases the boot image on decode
};

// Meta prefix only — pass the command payload as Log::append's payload
// part so it is retained, not copied.
inline Bytes encode_accepted_meta(std::uint64_t slot, const Ballot& b,
                                  MsgId about) {
    codec::Writer w;
    w.varint(slot);
    w.u64(b.round);
    w.zigzag(b.proc);
    w.u64(about);
    return std::move(w).take();
}

inline AcceptedRecord decode_accepted(const BufferSlice& body) {
    codec::Reader r(body);
    AcceptedRecord rec;
    rec.slot = r.varint();
    rec.ballot.round = r.u64();
    rec.ballot.proc = static_cast<ProcessId>(r.zigzag());
    rec.about = r.u64();
    rec.payload = r.take_slice(r.remaining());
    return rec;
}

// --- chosen -------------------------------------------------------------

struct ChosenRecord {
    std::uint64_t slot = 0;
    MsgId about = invalid_msg;
    BufferSlice payload;
};

inline Bytes encode_chosen_meta(std::uint64_t slot, MsgId about) {
    codec::Writer w;
    w.varint(slot);
    w.u64(about);
    return std::move(w).take();
}

inline ChosenRecord decode_chosen(const BufferSlice& body) {
    codec::Reader r(body);
    ChosenRecord rec;
    rec.slot = r.varint();
    rec.about = r.u64();
    rec.payload = r.take_slice(r.remaining());
    return rec;
}

// --- snapshot -----------------------------------------------------------

struct SnapshotRecord {
    std::uint64_t snap_upto = 0;
    BufferSlice state;
};

inline Bytes encode_snapshot_meta(std::uint64_t snap_upto) {
    codec::Writer w;
    w.varint(snap_upto);
    return std::move(w).take();
}

inline SnapshotRecord decode_snapshot(const BufferSlice& body) {
    codec::Reader r(body);
    SnapshotRecord rec;
    rec.snap_upto = r.varint();
    rec.state = r.take_slice(r.remaining());
    return rec;
}

// --- app_delivered ------------------------------------------------------

// One delivered message id, appended by the bench-plane NodeShim right
// after its sink records the delivery. Rides the same commit batch as the
// protocol's own records, so a restarted node recovers its full delivery
// sequence (and order digest) alongside the replica state.

inline Bytes encode_app_delivered(MsgId id) {
    codec::Writer w;
    w.u64(id);
    return std::move(w).take();
}

inline MsgId decode_app_delivered(const BufferSlice& body) {
    codec::Reader r(body);
    const MsgId id = r.u64();
    r.expect_done();
    return id;
}

// --- watermark ----------------------------------------------------------

inline Bytes encode_watermark(const Timestamp& ts) {
    codec::Writer w;
    w.u64(ts.time);
    w.zigzag(ts.group);
    return std::move(w).take();
}

inline Timestamp decode_watermark(const BufferSlice& body) {
    codec::Reader r(body);
    Timestamp ts;
    ts.time = r.u64();
    ts.group = static_cast<GroupId>(r.zigzag());
    r.expect_done();
    return ts;
}

// --- wb_floor -----------------------------------------------------------

// One record per raise of a wbcast replica's delivered floor (the group's
// floor capped by the replica's own watermark), in place of a stub record
// per compacted entry. Same body as a watermark.

inline Bytes encode_floor(const Timestamp& floor) {
    return encode_watermark(floor);
}

inline Timestamp decode_floor(const BufferSlice& body) {
    return decode_watermark(body);
}

}  // namespace wbam::wal

#endif  // WBAM_WAL_RECORDS_HPP
