// wire.hpp - the wire format and its field-id registry.
//
// The paper keeps all exchanged data as null-terminated strings
// (Section 3.2). Every frame keeps that shape - a string->string field
// table - but encodes it compactly behind a u32 length prefix:
//
//   payload:    u8 0xFD | u8 version(=2) | u8 flags(=0) | u16 type |
//               varint seq | varint nfields | field*
//   field:      u8 tag | varint body_len | body
//     tag 0x01 (interned): body = u16 field_id | value bytes
//     tag 0x02 (named):    body = varint klen | key bytes | value bytes
//     any other tag:       skipped (body_len makes every field
//                          self-delimiting - the skip-unknown-fields rule)
//
// The marker, version and flags bytes are the header check: a frame whose
// first three payload bytes are not exactly 0xFD 0x02 0x00 is rejected.
//
// The field-id registry interns the well-known keys (attrspace protocol
// fields, the _tc trace header, batch k<i>/v<i> slots, liveness/telemetry
// publish fields). Ids are wire format: never renumber, only append.
// A key missing from the registry simply rides as tag 0x02 - unknown
// string keys pass through unchanged, and a reader that does not know an
// interned id skips that field (same rule as unknown tags).
#pragma once

#include <cstdint>
#include <string_view>

namespace tdp::net {

/// The one frame encoding. Kept as a type only for perfbench/decorators.cpp
/// and layers.cpp, until the next benchmark change drops those uses.
enum class WireVersion : std::uint8_t {
  kV2 = 2,
};

/// payload[0] of every frame.
inline constexpr std::uint8_t kV2Marker = 0xFD;

/// Looks up the interned id for a field key. Returns true and sets `id`
/// when the key is in the registry.
bool wire_field_id(std::string_view key, std::uint16_t* id);

/// Reverse lookup. Returns empty view for unknown ids (the decoder then
/// skips the field).
std::string_view wire_field_name(std::uint16_t id);

/// Number of registered ids (test surface; also the next free id).
std::size_t wire_field_registry_size();

}  // namespace tdp::net
