#include "codec/writer.hpp"

namespace wbam::codec {

void Writer::bytes(const Bytes& b) {
    varint(b.size());
    raw(b.data(), b.size());
}

void Writer::bytes(const BufferSlice& s) {
    varint(s.size());
    raw(s.data(), s.size());
}

Writer::Mark Writer::reserve_u8() {
    const Mark at = buf_.size();
    buf_.push_back(0);
    return at;
}

Writer::Mark Writer::reserve_u16() {
    const Mark at = buf_.size();
    buf_.insert(buf_.end(), 2, 0);
    return at;
}

Writer::Mark Writer::reserve_u32() {
    const Mark at = buf_.size();
    buf_.insert(buf_.end(), 4, 0);
    return at;
}

void Writer::patch_u8(Mark at, std::uint8_t v) { buf_.at(at) = v; }

void Writer::patch_u16(Mark at, std::uint16_t v) {
    buf_.at(at) = static_cast<std::uint8_t>(v);
    buf_.at(at + 1) = static_cast<std::uint8_t>(v >> 8);
}

void Writer::patch_u32(Mark at, std::uint32_t v) {
    patch_u16(at, static_cast<std::uint16_t>(v));
    patch_u16(at + 2, static_cast<std::uint16_t>(v >> 16));
}

void Writer::str(std::string_view s) {
    varint(s.size());
    raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

}  // namespace wbam::codec
