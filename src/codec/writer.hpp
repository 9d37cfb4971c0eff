// Append-only binary encoder. Fixed-width integers are little-endian;
// unsigned varints use LEB128; signed integers use zigzag varints.
//
// Every field is one append, and a Writer starts with room for a small
// message (initial_capacity), so a typical envelope or WAL meta prefix is
// encoded into a single allocation instead of regrowing byte by byte.
//
// reserve/patch: a caller that does not know a fixed-width field's value
// up front (a batch count, a length header) reserves its bytes, keeps
// appending, and patches the value in afterwards — one encoding pass, no
// re-serialisation. take_buffer() freezes the result into an immutable
// shared Buffer for fan-out without further copies.
#ifndef WBAM_CODEC_WRITER_HPP
#define WBAM_CODEC_WRITER_HPP

#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/bytes.hpp"

namespace wbam::codec {

class Writer {
public:
    // Position of a reserved fixed-width field, to be patched later.
    using Mark = std::size_t;

    static constexpr std::size_t initial_capacity = 64;

    Writer() { buf_.reserve(initial_capacity); }

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { fixed<2>(v); }
    void u32(std::uint32_t v) { fixed<4>(v); }
    void u64(std::uint64_t v) { fixed<8>(v); }
    void varint(std::uint64_t v) {
        std::uint8_t out[10];  // LEB128 of 64 bits: at most 10 bytes
        std::size_t n = 0;
        while (v >= 0x80) {
            out[n++] = static_cast<std::uint8_t>(v) | 0x80;
            v >>= 7;
        }
        out[n++] = static_cast<std::uint8_t>(v);
        raw(out, n);
    }
    void zigzag(std::int64_t v) {
        varint((static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63));
    }
    void boolean(bool v) { u8(v ? 1 : 0); }

    // Raw bytes without a length prefix.
    void raw(const std::uint8_t* data, std::size_t n) {
        if (n == 0) return;  // an empty source may hand out a null data()
        const std::size_t at = buf_.size();
        buf_.resize(at + n);
        std::memcpy(buf_.data() + at, data, n);
    }
    // Length-prefixed byte string.
    void bytes(const Bytes& b);
    void bytes(const BufferSlice& s);
    void str(std::string_view s);

    // Reserve fixed-width fields now, patch their values once known.
    Mark reserve_u8();
    Mark reserve_u16();
    Mark reserve_u32();
    void patch_u8(Mark at, std::uint8_t v);
    void patch_u16(Mark at, std::uint16_t v);
    void patch_u32(Mark at, std::uint32_t v);

    std::size_t size() const { return buf_.size(); }
    Bytes take() && { return std::move(buf_); }
    // Freezes the encoded image into a shared immutable buffer (no copy).
    Buffer take_buffer() && { return Buffer(std::move(buf_)); }
    const Bytes& buffer() const { return buf_; }

private:
    template <std::size_t N, class U>
    void fixed(U v) {
        std::uint8_t le[N];
        for (std::size_t i = 0; i < N; ++i)
            le[i] = static_cast<std::uint8_t>(v >> (8 * i));
        raw(le, N);
    }

    Bytes buf_;
};

}  // namespace wbam::codec

#endif  // WBAM_CODEC_WRITER_HPP
