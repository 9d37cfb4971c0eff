// Uniform wire envelope shared by every module:
//   [module:u8][type:u8][about: varint MsgId][body...]
// `about` names the application message a protocol message concerns
// (invalid_msg when the message is not specific to one), which lets the
// genuineness checker audit traffic without protocol-specific parsing.
//
// Wire-path ownership in brief (the full lifetime story — encode → send →
// retain → decode → deliver → compact — and the decode-side aliasing
// rules live in docs/ARCHITECTURE.md):
// * encode_envelope freezes one immutable Buffer per logical message; the
//   sender fans the SAME buffer out to every recipient.
// * A handler's inbound BufferSlice aliases the sender's frozen buffer;
//   EnvelopeView/Reader parse in place, and kept subslices (including
//   decoded AppMessage payloads) share the whole allocation. Long-lived
//   state detaches via BufferSlice::compact()/to_bytes().
// * Every send is one envelope in one frame. Module::batch is a retired
//   tag: no sender produces it, and no row handles it, so an envelope
//   carrying it is dropped like any other message for no protocol.
#ifndef WBAM_CODEC_WIRE_HPP
#define WBAM_CODEC_WIRE_HPP

#include "codec/fields.hpp"
#include "codec/reader.hpp"
#include "codec/writer.hpp"
#include "common/types.hpp"

namespace wbam::codec {

enum class Module : std::uint8_t {
    elect = 0,   // leader election heartbeats/suspicions
    proto = 1,   // the atomic multicast protocol itself
    paxos = 2,   // intra-group consensus used by black-box baselines
    client = 3,  // client requests and delivery acknowledgements
    app = 4,     // application payloads layered over multicast (kv store)
    batch = 5,   // retired: formerly a frame of coalesced envelopes
    ctrl = 6,    // distributed-benchmark control plane (src/ctrl/)
};

template <WireMessage T>
Buffer encode_envelope(Module module, std::uint8_t type, MsgId about,
                       const T& body) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(module));
    w.u8(type);
    w.varint(about);
    body.encode(w);
    return std::move(w).take_buffer();
}

// Envelope with no body.
inline Buffer encode_envelope(Module module, std::uint8_t type, MsgId about) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(module));
    w.u8(type);
    w.varint(about);
    return std::move(w).take_buffer();
}

struct EnvelopeView {
    Module module{};
    std::uint8_t type = 0;
    MsgId about = invalid_msg;
    Reader body;

    explicit EnvelopeView(const BufferSlice& bytes) : body(bytes) { parse(); }
    // Unbacked view (tests, hand-built frames): aliasing reads copy.
    explicit EnvelopeView(const Bytes& bytes) : body(bytes) { parse(); }

private:
    void parse() {
        const std::uint8_t m = body.u8();
        if (m > static_cast<std::uint8_t>(Module::ctrl))
            throw DecodeError("unknown module");
        module = static_cast<Module>(m);
        type = body.u8();
        about = body.varint();
    }
};

// --- the retired batch frame ------------------------------------------------
//
// Nothing produces a Module::batch frame any more. The two readers below
// stay because the repository benchmark's send probe
// (perfbench/src/probe.cpp) still compiles against them; with no batch
// frame on the wire it counts one envelope per send. The old format:
//     [batch:u8][0:u8][0 varint][count:u32][count × (len varint, envelope)]

// Cheap peek: does this wire image carry the retired batch tag?
inline bool is_batch_frame(const BufferSlice& bytes) {
    return !bytes.empty() &&
           bytes.data()[0] == static_cast<std::uint8_t>(Module::batch);
}

// Invokes fn(BufferSlice) for each envelope of a batch frame, in order.
// The subslices alias the frame's storage. Throws DecodeError on a
// malformed frame (including nested batches).
template <typename Fn>
void for_each_batched(const BufferSlice& frame, Fn&& fn) {
    Reader r(frame);
    if (r.u8() != static_cast<std::uint8_t>(Module::batch))
        throw DecodeError("not a batch frame");
    if (r.u8() != 0) throw DecodeError("unknown batch frame type");
    (void)r.varint();  // about (always invalid_msg)
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t len = r.varint();
        if (len > r.remaining())
            throw DecodeError("batch entry exceeds frame");
        BufferSlice sub = r.take_slice(static_cast<std::size_t>(len));
        if (is_batch_frame(sub)) throw DecodeError("nested batch frame");
        fn(sub);
    }
    r.expect_done();
}

}  // namespace wbam::codec

#endif  // WBAM_CODEC_WIRE_HPP
