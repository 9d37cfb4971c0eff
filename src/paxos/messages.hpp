// Wire messages of the intra-group multi-Paxos used by the black-box
// baselines (FT-Skeen and FastCast). Travels as codec::Module::paxos.
#ifndef WBAM_PAXOS_MESSAGES_HPP
#define WBAM_PAXOS_MESSAGES_HPP

#include <vector>

#include "codec/fields.hpp"
#include "common/types.hpp"

namespace wbam::paxos {

enum class MsgType : std::uint8_t {
    p1a = 0,
    p1b = 1,
    p2a = 2,
    p2b = 3,
    chosen = 4,
    nack = 5,
    // 6 and 7 are retired (the engine's own GC status/prune pair; applied
    // progress now rides the host's GC exchange, multicast/gc_floor.hpp).
    // They stay reserved: never renumber or reuse them. An envelope of
    // either type is consumed and ignored.
    catchup_request = 8,   // lagging member -> up-to-date peer
    catchup_snapshot = 9,  // peer -> lagging member: state and/or log suffix
};

// A replicated command. `about` names the application message the command
// concerns (for genuineness auditing); `data` is the host protocol's
// serialized command. An empty `data` is a no-op (gap filler).
//
// `data` is a BufferSlice: decoded commands alias the paxos wire message
// they arrived in, and nested decodes (e.g. an AppMessage inside a
// ProposeCmd) alias it transitively — the delivered payload of the
// black-box baselines is a view of the consensus wire buffer. Equality is
// content equality, which is what the chosen-once agreement check needs.
struct Command {
    MsgId about = invalid_msg;
    BufferSlice data;

    bool is_noop() const { return data.empty(); }

    void encode(codec::Writer& w) const {
        codec::write_field(w, about);
        codec::write_field(w, data);
    }
    static Command decode(codec::Reader& r) {
        Command c;
        codec::read_field(r, c.about);
        codec::read_field(r, c.data);
        return c;
    }
    friend bool operator==(const Command&, const Command&) = default;
};

struct P1aMsg {
    Ballot ballot;
    std::uint64_t low_slot = 1;

    void encode(codec::Writer& w) const {
        codec::write_field(w, ballot);
        codec::write_field(w, low_slot);
    }
    static P1aMsg decode(codec::Reader& r) {
        P1aMsg m;
        codec::read_field(r, m.ballot);
        codec::read_field(r, m.low_slot);
        return m;
    }
};

struct AcceptedEntry {
    std::uint64_t slot = 0;
    Ballot ballot;
    Command cmd;

    void encode(codec::Writer& w) const {
        codec::write_field(w, slot);
        codec::write_field(w, ballot);
        codec::write_field(w, cmd);
    }
    static AcceptedEntry decode(codec::Reader& r) {
        AcceptedEntry e;
        codec::read_field(r, e.slot);
        codec::read_field(r, e.ballot);
        codec::read_field(r, e.cmd);
        return e;
    }
};

struct ChosenEntry {
    std::uint64_t slot = 0;
    Command cmd;

    void encode(codec::Writer& w) const {
        codec::write_field(w, slot);
        codec::write_field(w, cmd);
    }
    static ChosenEntry decode(codec::Reader& r) {
        ChosenEntry e;
        codec::read_field(r, e.slot);
        codec::read_field(r, e.cmd);
        return e;
    }
};

struct P1bMsg {
    Ballot ballot;
    std::vector<AcceptedEntry> accepted;  // accepted but possibly unchosen
    std::vector<ChosenEntry> known_chosen;
    // Slots at-or-below this were pruned from this acceptor's chosen log
    // (below the host-set applied floor): the candidate cannot learn them slot-by-slot and
    // must not fill them with no-ops — it catches up via snapshot instead.
    std::uint64_t pruned_upto = 0;

    void encode(codec::Writer& w) const {
        codec::write_field(w, ballot);
        codec::write_field(w, accepted);
        codec::write_field(w, known_chosen);
        codec::write_field(w, pruned_upto);
    }
    static P1bMsg decode(codec::Reader& r) {
        P1bMsg m;
        codec::read_field(r, m.ballot);
        codec::read_field(r, m.accepted);
        codec::read_field(r, m.known_chosen);
        codec::read_field(r, m.pruned_upto);
        return m;
    }
};

struct P2aMsg {
    Ballot ballot;
    std::uint64_t slot = 0;
    Command cmd;

    void encode(codec::Writer& w) const {
        codec::write_field(w, ballot);
        codec::write_field(w, slot);
        codec::write_field(w, cmd);
    }
    static P2aMsg decode(codec::Reader& r) {
        P2aMsg m;
        codec::read_field(r, m.ballot);
        codec::read_field(r, m.slot);
        codec::read_field(r, m.cmd);
        return m;
    }
};

struct P2bMsg {
    Ballot ballot;
    std::uint64_t slot = 0;

    void encode(codec::Writer& w) const {
        codec::write_field(w, ballot);
        codec::write_field(w, slot);
    }
    static P2bMsg decode(codec::Reader& r) {
        P2bMsg m;
        codec::read_field(r, m.ballot);
        codec::read_field(r, m.slot);
        return m;
    }
};

struct ChosenMsg {
    std::uint64_t slot = 0;
    Command cmd;

    void encode(codec::Writer& w) const {
        codec::write_field(w, slot);
        codec::write_field(w, cmd);
    }
    static ChosenMsg decode(codec::Reader& r) {
        ChosenMsg m;
        codec::read_field(r, m.slot);
        codec::read_field(r, m.cmd);
        return m;
    }
};

struct NackMsg {
    Ballot promised;

    void encode(codec::Writer& w) const { codec::write_field(w, promised); }
    static NackMsg decode(codec::Reader& r) {
        NackMsg m;
        codec::read_field(r, m.promised);
        return m;
    }
};

// --- catch-up ---------------------------------------------------------------

// Lagging member -> up-to-date peer: "I have applied up to `applied_upto`;
// send me what I am missing." `mark` is opaque host metadata (MarkFn) the
// responder's SnapshotFn uses to avoid shipping state the requester
// already holds — ftskeen/fastcast encode their delivery watermark so the
// snapshot strips payloads the requester has already delivered.
struct CatchupRequestMsg {
    std::uint64_t applied_upto = 0;
    BufferSlice mark;

    void encode(codec::Writer& w) const {
        codec::write_field(w, applied_upto);
        codec::write_field(w, mark);
    }
    static CatchupRequestMsg decode(codec::Reader& r) {
        CatchupRequestMsg m;
        codec::read_field(r, m.applied_upto);
        codec::read_field(r, m.mark);
        return m;
    }
};

// Catch-up payload. When the requester's gap is still covered by the
// responder's retained chosen log, `entries` alone carries the missing
// slots. When the requester fell below the responder's pruned floor,
// `snap_upto`/`state` ship the host applier's replicated state as of slot
// `snap_upto` (opaque to the consensus layer; see MultiPaxos::SnapshotFn)
// and `entries` carries the retained suffix beyond it.
struct CatchupSnapshotMsg {
    std::uint64_t snap_upto = 0;  // 0: no applier snapshot, entries only
    BufferSlice state;
    std::vector<ChosenEntry> entries;

    void encode(codec::Writer& w) const {
        codec::write_field(w, snap_upto);
        codec::write_field(w, state);
        codec::write_field(w, entries);
    }
    static CatchupSnapshotMsg decode(codec::Reader& r) {
        CatchupSnapshotMsg m;
        codec::read_field(r, m.snap_upto);
        codec::read_field(r, m.state);
        codec::read_field(r, m.entries);
        return m;
    }
};

}  // namespace wbam::paxos

#endif  // WBAM_PAXOS_MESSAGES_HPP
