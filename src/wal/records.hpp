// WAL record tags and the codec for the protocol-agnostic record bodies
// (paxos log entries, deliveries and GC floors — everything expressible
// in common/types.hpp vocabulary). Protocol-specific records
// (wbcast's replicated-entry snapshots) are encoded by their own module;
// the wal layer treats those bodies as opaque bytes.
//
// The accepted/chosen records carry their command payload as a raw
// suffix: the encoder writes a small meta prefix and the payload rides
// along as a retained BufferSlice (Log::append's second part), so the
// hot path appends without copying command bytes. Decoding aliases the
// log's boot image the same way.
//
// A replica's `delivered` records are its one durable delivery record:
// ReplicaCore::deliver appends one per delivery, in delivery order. The
// replica's watermark (the highest gts among them) and the bench plane's
// delivery sequence (ctrl::NodeShim) are both rebuilt from them.
#ifndef WBAM_WAL_RECORDS_HPP
#define WBAM_WAL_RECORDS_HPP

#include <cstdint>

#include "codec/fields.hpp"
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
    // 5: reserved (was a delivery watermark, now derived from `delivered`)
    wb_entry = 6,        // wbcast replicated entry (opaque EntryState body)
    wb_status = 7,       // wbcast ballots + clock (opaque body)
    // 8: reserved (was the bench shim's copy of each delivered id)
    wb_floor = 9,        // wbcast delivered floor: every delivered entry at
                         // or below it is a payload stub after replay
    delivered = 10,      // one delivery: (gts, message id)
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

// --- delivered ----------------------------------------------------------

struct DeliveredRecord {
    Timestamp gts;
    MsgId id = invalid_msg;

    bool operator==(const DeliveredRecord&) const = default;
};

inline Bytes encode_delivered(const DeliveredRecord& d) {
    codec::Writer w;
    codec::write_field(w, d.gts);
    w.u64(d.id);
    return std::move(w).take();
}

inline DeliveredRecord decode_delivered(const BufferSlice& body) {
    codec::Reader r(body);
    DeliveredRecord d;
    codec::read_field(r, d.gts);
    d.id = r.u64();
    r.expect_done();
    return d;
}

// --- wb_floor -----------------------------------------------------------

// One record per raise of a wbcast replica's delivered floor (the group's
// floor capped by the replica's own watermark), in place of a stub record
// per compacted entry.

inline Bytes encode_floor(const Timestamp& floor) {
    codec::Writer w;
    w.u64(floor.time);
    w.zigzag(floor.group);
    return std::move(w).take();
}

inline Timestamp decode_floor(const BufferSlice& body) {
    codec::Reader r(body);
    Timestamp ts;
    ts.time = r.u64();
    ts.group = static_cast<GroupId>(r.zigzag());
    r.expect_done();
    return ts;
}

}  // namespace wbam::wal

#endif  // WBAM_WAL_RECORDS_HPP
