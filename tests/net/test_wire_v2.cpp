// Wire format tests: compact-layout round trips, field-id interning, the
// skip-unknown-fields rule (also across TCP), strict header validation
// (the retired v1 layout is rejected), and fuzz coverage mirroring
// test_fuzz_decode.cpp (truncated frames, corrupted field-id tables,
// random mutations).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "net/message.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"

namespace tdp::net {
namespace {

Message sample_message() {
  Message msg(MsgType::kAttrPut);
  msg.set_seq(0x1234567890ABCDEFULL);
  msg.set("attr", "pid");          // interned protocol field
  msg.set("value", "1234567890");  // interned protocol field
  msg.set("ctx", "job-1");         // interned protocol field
  msg.set("application-key", "survives as a named field");
  return msg;
}

void put_varint(std::vector<std::uint8_t>* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(v));
}

// Hand-assembles a v2 frame from raw parts (length prefix included), so
// tests can express frames no conforming encoder would produce.
std::vector<std::uint8_t> frame_v2(MsgType type, std::uint64_t seq,
                                   const std::vector<std::vector<std::uint8_t>>& fields) {
  // Byte-wise appends only: GCC 12 reports a false -Wstringop-overread on
  // a vector range insert here, which fails -Werror Release builds.
  std::vector<std::uint8_t> frame(Message::kLenPrefixSize, 0);  // patched below
  frame.push_back(kV2Marker);
  frame.push_back(2);  // version
  frame.push_back(0);  // flags
  frame.push_back(static_cast<std::uint8_t>(static_cast<std::uint16_t>(type) & 0xFF));
  frame.push_back(static_cast<std::uint8_t>(static_cast<std::uint16_t>(type) >> 8));
  put_varint(&frame, seq);
  put_varint(&frame, fields.size());
  for (const auto& field : fields) {
    for (std::uint8_t byte : field) frame.push_back(byte);
  }
  const auto len = static_cast<std::uint32_t>(frame.size() - Message::kLenPrefixSize);
  for (std::size_t i = 0; i < Message::kLenPrefixSize; ++i) {
    frame[i] = static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF);
  }
  return frame;
}

std::vector<std::uint8_t> named_field(std::string_view key, std::string_view value) {
  std::vector<std::uint8_t> body;
  put_varint(&body, key.size());
  body.insert(body.end(), key.begin(), key.end());
  body.insert(body.end(), value.begin(), value.end());
  std::vector<std::uint8_t> field{0x02};
  put_varint(&field, body.size());
  field.insert(field.end(), body.begin(), body.end());
  return field;
}

// The retired v1 layout, which no endpoint speaks any more:
// u32 len | u16 type | u64 seq | u16 nfields | {u16 klen, key, u32 vlen, value}*.
std::vector<std::uint8_t> frame_v1(MsgType type, std::uint64_t seq,
                                   std::string_view key, std::string_view value) {
  std::vector<std::uint8_t> frame;
  auto put_le = [&frame](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      frame.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  };
  const std::size_t payload = 2 + 8 + 2 + 2 + key.size() + 4 + value.size();
  put_le(payload, 4);
  put_le(static_cast<std::uint16_t>(type), 2);
  put_le(seq, 8);
  put_le(1, 2);  // nfields
  put_le(key.size(), 2);
  for (char c : key) frame.push_back(static_cast<std::uint8_t>(c));
  put_le(value.size(), 4);
  for (char c : value) frame.push_back(static_cast<std::uint8_t>(c));
  return frame;
}

std::vector<std::uint8_t> interned_field(std::uint16_t id, std::string_view value) {
  std::vector<std::uint8_t> body;
  body.push_back(static_cast<std::uint8_t>(id & 0xFF));
  body.push_back(static_cast<std::uint8_t>(id >> 8));
  body.insert(body.end(), value.begin(), value.end());
  std::vector<std::uint8_t> field{0x01};
  put_varint(&field, body.size());
  field.insert(field.end(), body.begin(), body.end());
  return field;
}

TEST(WireV2, RoundTripsThroughDecodeAndView) {
  const Message msg = sample_message();
  const auto bytes = msg.encode();
  EXPECT_EQ(bytes.size(), msg.encoded_size());

  auto decoded = Message::decode(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), msg);

  MessageView view;
  ASSERT_TRUE(view.parse(bytes.data(), bytes.size()).is_ok());
  EXPECT_EQ(view.type(), MsgType::kAttrPut);
  EXPECT_EQ(view.seq(), msg.seq());
  EXPECT_EQ(view.get("attr"), "pid");
  EXPECT_EQ(view.get("application-key"), "survives as a named field");
}

TEST(WireV2, EncodeIntoReusesBufferAndMatchesEncode) {
  const Message msg = sample_message();
  std::vector<std::uint8_t> warm;
  msg.encode_into(warm);
  EXPECT_EQ(warm, msg.encode());
  // Second fill must not grow the buffer: steady-state senders stay
  // allocation-free.
  const std::uint8_t* data = warm.data();
  const std::size_t cap = warm.capacity();
  msg.encode_into(warm);
  EXPECT_EQ(warm.data(), data);
  EXPECT_EQ(warm.capacity(), cap);
}

TEST(WireV2, InterningShrinksWellKnownFields) {
  std::uint16_t id = 0;
  ASSERT_TRUE(wire_field_id("attr", &id));
  EXPECT_EQ(wire_field_name(id), "attr");
  ASSERT_TRUE(wire_field_id(kTraceField, &id));
  EXPECT_TRUE(wire_field_name(wire_field_registry_size()).empty());

  // An interned key costs its 2-byte id; an unregistered key of the same
  // length rides as a named field and pays for its bytes.
  Message interned(MsgType::kAttrPut);
  interned.set("attr", "x");
  Message named(MsgType::kAttrPut);
  named.set("attz", "x");
  EXPECT_LT(interned.encoded_size(), named.encoded_size());
}

TEST(WireV2, RetiredFieldIdIsSkipped) {
  // Id 12 keeps its number but maps to no key, so a field carrying it is
  // skipped like one from a newer registry.
  EXPECT_TRUE(wire_field_name(12).empty());
  EXPECT_FALSE(wire_field_name(13).empty());
  const auto frame = frame_v2(MsgType::kAttrInit, 1,
                              {interned_field(12, "2"), named_field("ctx", "job-1")});
  auto decoded = Message::decode(frame.data(), frame.size());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->fields().size(), 1u);
  EXPECT_EQ(decoded->get("ctx"), "job-1");
}

TEST(WireV2, UnknownKeysRideAsNamedFields) {
  Message msg(MsgType::kAttrPut);
  msg.set("totally-custom-key", "v");
  const auto bytes = msg.encode();
  auto decoded = Message::decode(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->get("totally-custom-key"), "v");
}

TEST(WireV2, SkipsUnknownTagsAndUnregisteredIds) {
  const auto future_id =
      static_cast<std::uint16_t>(wire_field_registry_size() + 100);
  std::vector<std::uint8_t> unknown_tag{0x5E};
  put_varint(&unknown_tag, 3);
  unknown_tag.insert(unknown_tag.end(), {1, 2, 3});

  const auto frame = frame_v2(
      MsgType::kAttrPut, 9,
      {named_field("keep", "me"), interned_field(future_id, "from the future"),
       unknown_tag, named_field("also", "kept")});
  auto decoded = Message::decode(frame.data(), frame.size());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->fields().size(), 2u);
  EXPECT_EQ(decoded->get("keep"), "me");
  EXPECT_EQ(decoded->get("also"), "kept");

  MessageView view;
  ASSERT_TRUE(view.parse(frame.data(), frame.size()).is_ok());
  EXPECT_EQ(view.field_count(), 2u);
}

TEST(WireV2, UnknownFieldsSkippedAcrossTcp) {
  TcpTransport transport;
  auto listener = transport.listen(":0").value();
  auto dial = std::thread([&] {
    auto client = transport.connect(listener->address()).value();
    // A future sender: a known field plus an unknown-tag field this build
    // has never heard of. send_frame writes the crafted bytes verbatim.
    const std::vector<std::uint8_t> unknown_tag{0x6E, 0x04, 0xDE, 0xAD, 0xBE, 0xEF};
    const auto frame =
        frame_v2(MsgType::kAttrPut, 3, {named_field("attr", "pid"), unknown_tag});
    (void)client->send_frame(frame.data(), frame.size());
    (void)client->receive(1000);
  });
  auto server = listener->accept(5000).value();
  auto received = server->receive(5000);
  ASSERT_TRUE(received.is_ok()) << received.status().to_string();
  EXPECT_EQ(received->get("attr"), "pid");
  EXPECT_EQ(received->fields().size(), 1u);  // the future field was skipped
  server->close();
  dial.join();
}

TEST(WireV2, RejectsBadHeaders) {
  const Message msg = sample_message();
  auto bytes = msg.encode();

  auto bad_version = bytes;
  bad_version[Message::kLenPrefixSize + 1] = 3;  // future wire version
  EXPECT_FALSE(Message::decode(bad_version.data(), bad_version.size()).is_ok());

  auto bad_flags = bytes;
  bad_flags[Message::kLenPrefixSize + 2] = 0x80;  // undefined flag bit
  EXPECT_FALSE(Message::decode(bad_flags.data(), bad_flags.size()).is_ok());

  // nfields larger than the remaining payload could ever hold.
  const auto huge = frame_v2(MsgType::kPing, 1, {});
  auto inflated = huge;
  inflated[inflated.size() - 1] = 0x7F;  // nfields = 127, zero field bytes
  EXPECT_FALSE(Message::decode(inflated.data(), inflated.size()).is_ok());
}

TEST(WireV2, V1FramesAreRejected) {
  const auto v1 = frame_v1(MsgType::kAttrPut, 7, "attr", "pid");
  ASSERT_NE(v1[Message::kLenPrefixSize], kV2Marker);
  auto decoded = Message::decode(v1.data(), v1.size());
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kInvalidArgument);

  MessageView view;
  const Status parsed = view.parse(v1.data(), v1.size());
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.code(), ErrorCode::kInvalidArgument);
}

TEST(WireV2, TcpReceiverRejectsV1Frame) {
  TcpTransport transport;
  auto listener = transport.listen(":0").value();
  auto dial = std::thread([&] {
    auto client = transport.connect(listener->address()).value();
    const auto v1 = frame_v1(MsgType::kPing, 1, "payload", "old");
    (void)client->send_frame(v1.data(), v1.size());
    (void)client->receive(1000);
  });
  auto server = listener->accept(5000).value();
  auto received = server->receive(5000);
  ASSERT_FALSE(received.is_ok());
  EXPECT_EQ(received.status().code(), ErrorCode::kInvalidArgument);
  server->close();
  dial.join();
}

class WireV2Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireV2Fuzz, TruncationsNeverCrashOrPass) {
  const auto bytes = sample_message().encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(Message::decode(bytes.data(), cut).is_ok());
  }
}

TEST_P(WireV2Fuzz, SingleByteMutationsNeverCrash) {
  Rng rng(GetParam());
  const auto bytes = sample_message().encode();
  for (int round = 0; round < 4000; ++round) {
    auto mutated = bytes;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    auto decoded = Message::decode(mutated.data(), mutated.size());
    if (decoded.is_ok()) {
      // Accepted input must reach a fixpoint.
      auto reencoded = decoded->encode();
      auto redecoded = Message::decode(reencoded.data(), reencoded.size());
      ASSERT_TRUE(redecoded.is_ok());
      EXPECT_EQ(redecoded.value(), decoded.value());
    }
  }
}

TEST_P(WireV2Fuzz, CorruptedFieldTablesNeverCrash) {
  Rng rng(GetParam());
  // Mutate only the field region (tags, lengths, interned ids) so the
  // header stays valid and the field parser does the rejecting.
  Message msg(MsgType::kAttrPutBatch);
  for (int i = 0; i < 8; ++i) {
    msg.set("k" + std::to_string(i), std::string(1 + rng.next_below(48), 'x'));
  }
  const auto bytes = msg.encode();
  const std::size_t fields_start = Message::kLenPrefixSize + 5 + 1 + 1;
  for (int round = 0; round < 4000; ++round) {
    auto mutated = bytes;
    const std::size_t span = mutated.size() - fields_start;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[fields_start + rng.next_below(span)] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    auto decoded = Message::decode(mutated.data(), mutated.size());
    if (decoded.is_ok()) {
      auto reencoded = decoded->encode();
      auto redecoded = Message::decode(reencoded.data(), reencoded.size());
      ASSERT_TRUE(redecoded.is_ok());
      EXPECT_EQ(redecoded.value(), decoded.value());
    }
  }
}

TEST_P(WireV2Fuzz, MarkedRandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int round = 0; round < 2000; ++round) {
    const std::size_t size = rng.next_below(256);
    std::vector<std::uint8_t> payload(size);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_below(256));
    if (!payload.empty()) payload[0] = kV2Marker;  // past the marker check
    std::vector<std::uint8_t> frame;
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
    }
    frame.insert(frame.end(), payload.begin(), payload.end());
    auto decoded = Message::decode(frame.data(), frame.size());
    if (decoded.is_ok()) {
      auto reencoded = decoded->encode();
      auto redecoded = Message::decode(reencoded.data(), reencoded.size());
      ASSERT_TRUE(redecoded.is_ok());
      EXPECT_EQ(redecoded.value(), decoded.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireV2Fuzz, ::testing::Values(1u, 42u, 20030211u));

}  // namespace
}  // namespace tdp::net
