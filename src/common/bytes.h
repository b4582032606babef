// Byte-buffer type plus endian-stable (de)serialization helpers.
//
// All protocol messages in ga::sim are opaque byte payloads; these helpers are
// the single encoding used across modules so that commitments hash identical
// bytes on every processor.
#ifndef GA_COMMON_BYTES_H
#define GA_COMMON_BYTES_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ensure.h"

namespace ga::common {

/// Opaque byte buffer used for message payloads and hash inputs.
using Bytes = std::vector<std::uint8_t>;

/// Borrowed, read-only window into bytes someone else owns. `Bytes` and
/// `Shared_payload` both convert to one implicitly; a view is valid only as
/// long as its owner is alive and unmodified.
using Byte_view = std::span<const std::uint8_t>;

/// Append `value` to `out` in little-endian order.
void put_u32(Bytes& out, std::uint32_t value);
void put_u64(Bytes& out, std::uint64_t value);
void put_i64(Bytes& out, std::int64_t value);

/// Append a length-prefixed blob.
void put_bytes(Bytes& out, Byte_view blob);

/// Cursor-style reader over a byte buffer; throws Decode_error on underrun.
class Decode_error : public std::runtime_error {
public:
    explicit Decode_error(const std::string& what_arg) : std::runtime_error{what_arg} {}
};

/// Reads over a borrowed view: it never reads outside `data`, and the owner
/// of `data` must outlive the reader (and every view `get_view` returns).
/// The accessors are inline because IC section parsing calls them per
/// section per sender per round.
class Byte_reader {
public:
    explicit Byte_reader(Byte_view data) : data_{data} {}

    std::uint8_t get_u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t get_u32()
    {
        need(4);
        // Through a local pointer, so the compiler merges the four loads.
        const std::uint8_t* bytes = data_.data() + pos_;
        pos_ += 4;
        return static_cast<std::uint32_t>(bytes[0]) | static_cast<std::uint32_t>(bytes[1]) << 8 |
               static_cast<std::uint32_t>(bytes[2]) << 16 |
               static_cast<std::uint32_t>(bytes[3]) << 24;
    }

    std::uint64_t get_u64()
    {
        need(8);
        std::uint64_t value = 0;
        for (int shift = 0; shift < 64; shift += 8)
            value |= static_cast<std::uint64_t>(data_[pos_++]) << shift;
        return value;
    }

    std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

    /// A length-prefixed blob, borrowed from the reader's buffer.
    Byte_view get_view()
    {
        const std::uint32_t len = get_u32();
        need(len);
        const Byte_view blob = data_.subspan(pos_, len);
        pos_ += len;
        return blob;
    }

    // Bounds-checked reads for untrusted input on a hot path: on an underrun
    // they return false instead of throwing and leave the reader where it
    // was. (Out-parameters rather than optional returns: GCC spills an
    // optional span through the stack, which costs more than the parse.)

    bool try_get_u8(std::uint8_t& value)
    {
        if (remaining() < 1) return false;
        value = data_[pos_++];
        return true;
    }

    bool try_get_u32(std::uint32_t& value)
    {
        if (remaining() < 4) return false;
        value = get_u32();
        return true;
    }

    /// get_view() without the throw.
    bool try_get_view(Byte_view& blob)
    {
        if (remaining() < 4) return false;
        const std::size_t start = pos_;
        const std::uint32_t len = get_u32();
        if (len > remaining()) {
            pos_ = start;
            return false;
        }
        blob = data_.subspan(pos_, len);
        pos_ += len;
        return true;
    }

    /// A length-prefixed blob, copied out.
    Bytes get_bytes()
    {
        const Byte_view blob = get_view();
        return Bytes(blob.begin(), blob.end());
    }

    [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

private:
    void need(std::size_t count) const
    {
        if (count > data_.size() - pos_) throw Decode_error{"byte buffer underrun"};
    }

    Byte_view data_;
    std::size_t pos_ = 0;
};

/// Lower-case hex encoding, e.g. {0xde, 0xad} -> "dead".
std::string to_hex(const Bytes& data);

/// Inverse of to_hex; throws Decode_error on odd length or non-hex digits.
Bytes from_hex(const std::string& hex);

/// Bytes of a UTF-8/ASCII string (no terminator).
Bytes bytes_of(const std::string& text);

} // namespace ga::common

#endif // GA_COMMON_BYTES_H
