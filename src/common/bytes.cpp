#include "common/bytes.h"

#include <array>

namespace ga::common {

void put_u32(Bytes& out, std::uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<std::uint8_t>(value >> shift));
}

void put_u64(Bytes& out, std::uint64_t value)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<std::uint8_t>(value >> shift));
}

void put_i64(Bytes& out, std::int64_t value)
{
    put_u64(out, static_cast<std::uint64_t>(value));
}

void put_bytes(Bytes& out, Byte_view blob)
{
    put_u32(out, static_cast<std::uint32_t>(blob.size()));
    out.insert(out.end(), blob.begin(), blob.end());
}

std::string to_hex(const Bytes& data)
{
    static constexpr std::array<char, 16> digits = {'0', '1', '2', '3', '4', '5', '6', '7',
                                                    '8', '9', 'a', 'b', 'c', 'd', 'e', 'f'};
    std::string hex;
    hex.reserve(data.size() * 2);
    for (const std::uint8_t byte : data) {
        hex.push_back(digits[byte >> 4]);
        hex.push_back(digits[byte & 0x0f]);
    }
    return hex;
}

namespace {

int hex_digit(char c)
{
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw Decode_error{"invalid hex digit"};
}

} // namespace

Bytes from_hex(const std::string& hex)
{
    if (hex.size() % 2 != 0) throw Decode_error{"odd-length hex string"};
    Bytes data;
    data.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2)
        data.push_back(static_cast<std::uint8_t>(hex_digit(hex[i]) * 16 + hex_digit(hex[i + 1])));
    return data;
}

Bytes bytes_of(const std::string& text)
{
    return Bytes{text.begin(), text.end()};
}

} // namespace ga::common
