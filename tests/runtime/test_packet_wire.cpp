// The tagged packet wire format and the message-filter chain: deterministic
// serialization, typed errors on truncated/corrupted payloads (never UB),
// and exact round-trips through every filter.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "runtime/net/filters.hpp"
#include "runtime/net/packet.hpp"

namespace pigp::net {
namespace {

Packet make_sample() {
  Packet p;
  p.pack(42);
  p.pack(3.25);
  p.pack_vector(std::vector<std::int32_t>{5, 7, 7, 100, 1000000});
  p.pack_vector(std::vector<std::int64_t>{-3, 0, 1LL << 40});
  p.pack_vector(std::vector<double>{0.5, -1.25});
  p.pack_vector(std::vector<std::int32_t>{});
  p.pack(static_cast<std::uint8_t>(9));
  return p;
}

void expect_sample(Packet& p) {
  EXPECT_EQ(p.unpack<int>(), 42);
  EXPECT_DOUBLE_EQ(p.unpack<double>(), 3.25);
  EXPECT_EQ(p.unpack_vector<std::int32_t>(),
            (std::vector<std::int32_t>{5, 7, 7, 100, 1000000}));
  EXPECT_EQ(p.unpack_vector<std::int64_t>(),
            (std::vector<std::int64_t>{-3, 0, 1LL << 40}));
  EXPECT_EQ(p.unpack_vector<double>(), (std::vector<double>{0.5, -1.25}));
  EXPECT_TRUE(p.unpack_vector<std::int32_t>().empty());
  EXPECT_EQ(p.unpack<std::uint8_t>(), 9);
}

TEST(PacketWire, DeterministicSerializationRoundTrip) {
  Packet a = make_sample();
  Packet b = make_sample();
  // Same pack sequence -> byte-identical image (the wire format has no
  // nondeterministic padding), and from_bytes restores it exactly.
  ASSERT_EQ(a.bytes(), b.bytes());
  Packet restored = Packet::from_bytes(a.bytes());
  expect_sample(restored);
}

TEST(PacketWire, PackVectorByteImage) {
  // [kVector 'V'] [u8 sizeof(T)] [u64 count] [raw elements], integers in
  // host order; pinned on a little-endian host.
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "byte image pinned for little-endian hosts";
  }
  const std::vector<std::uint8_t> values_image = {
      0x56, 8,                                         // tag, element size
      2, 0, 0, 0, 0, 0, 0, 0,                          // count
      1, 0, 0, 0, 0, 0, 0, 0,                          // 1
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // -2
  };
  const std::vector<std::uint8_t> empty_image = {
      0x56, 8,                 // tag, element size
      0, 0, 0, 0, 0, 0, 0, 0,  // count, no payload
  };
  Packet values;
  values.pack_vector(std::vector<std::int64_t>{1, -2});
  EXPECT_EQ(values.bytes(), values_image);
  Packet empty;
  empty.pack_vector(std::vector<std::int64_t>{});
  EXPECT_EQ(empty.bytes(), empty_image);

  // Appending writes after what is already packed.
  values.pack_vector(std::vector<std::int64_t>{});
  std::vector<std::uint8_t> both = values_image;
  both.insert(both.end(), empty_image.begin(), empty_image.end());
  EXPECT_EQ(values.bytes(), both);
}

TEST(PacketWire, SpanSkipAndUnpackIntoMatchTheVectorPath) {
  // Packing a slice of a row writes the image of the equal vector; a
  // reader can step over a vector or unpack it into a reused buffer.
  const std::vector<std::int32_t> row = {9, 4, 4, 8, 1};
  Packet from_span;
  from_span.pack_vector(std::span<const std::int32_t>(row).subspan(1, 3));
  from_span.pack_vector(std::span<const double>());
  from_span.pack(7);
  Packet from_vector;
  from_vector.pack_vector(std::vector<std::int32_t>{4, 4, 8});
  from_vector.pack_vector(std::vector<double>{});
  from_vector.pack(7);
  ASSERT_EQ(from_span.bytes(), from_vector.bytes());

  std::vector<std::int32_t> buffer(16, -1);
  const std::int32_t* storage = buffer.data();
  from_span.unpack_vector_into(buffer);
  EXPECT_EQ(buffer, (std::vector<std::int32_t>{4, 4, 8}));
  EXPECT_EQ(buffer.data(), storage);  // capacity reused
  from_span.skip_vector<double>();
  EXPECT_EQ(from_span.unpack<int>(), 7);

  from_vector.skip_vector<std::int32_t>();
  EXPECT_THROW(from_vector.skip_vector<std::int32_t>(), TransportError);

  // Skipping checks the count against the payload like unpacking does.
  std::vector<std::uint8_t> image = Packet(from_vector).release_bytes();
  for (std::size_t i = 2; i < 10; ++i) image[i] = 0xFF;
  Packet corrupted = Packet::from_bytes(std::move(image));
  EXPECT_THROW(corrupted.skip_vector<std::int32_t>(), TransportError);
}

TEST(PacketWire, TagMismatchThrowsTyped) {
  Packet p;
  p.pack_vector(std::vector<int>{1, 2, 3});
  EXPECT_THROW((void)p.unpack<int>(), TransportError);
}

TEST(PacketWire, ElementSizeMismatchThrowsTyped) {
  Packet p;
  p.pack_vector(std::vector<std::int64_t>{1, 2});
  EXPECT_THROW((void)p.unpack_vector<std::int32_t>(), TransportError);
}

TEST(PacketWire, EveryTruncationPrefixThrowsNotCrashes) {
  const std::vector<std::uint8_t> image = make_sample().bytes();
  for (std::size_t len = 0; len < image.size(); ++len) {
    Packet p = Packet::from_bytes(std::vector<std::uint8_t>(
        image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len)));
    EXPECT_THROW(expect_sample(p), TransportError) << "prefix length " << len;
  }
}

TEST(PacketWire, CorruptedCountFailsBeforeAllocation) {
  Packet p;
  p.pack_vector(std::vector<std::int64_t>{1, 2, 3});
  std::vector<std::uint8_t> image = p.release_bytes();
  // Bytes 2..9 hold the u64 count; blow it up to an absurd value.  The
  // typed check must fire before any attempt to allocate count elements.
  for (std::size_t i = 2; i < 10; ++i) image[i] = 0xFF;
  Packet corrupted = Packet::from_bytes(std::move(image));
  EXPECT_THROW((void)corrupted.unpack_vector<std::int64_t>(),
               TransportError);
}

TEST(PacketWire, SingleByteCorruptionFuzz) {
  const std::vector<std::uint8_t> image = make_sample().bytes();
  std::mt19937 rng(12345);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> mutated = image;
    const std::size_t pos = rng() % mutated.size();
    const auto flip = static_cast<std::uint8_t>(1 + rng() % 255);
    mutated[pos] ^= flip;
    Packet p = Packet::from_bytes(std::move(mutated));
    // A flipped byte may silently change a value (payload bytes carry no
    // checksum) but must never escape the typed error path: either the
    // reader's unpack sequence completes or it throws TransportError.
    try {
      (void)p.unpack<int>();
      (void)p.unpack<double>();
      (void)p.unpack_vector<std::int32_t>();
      (void)p.unpack_vector<std::int64_t>();
      (void)p.unpack_vector<double>();
      (void)p.unpack_vector<std::int32_t>();
      (void)p.unpack<std::uint8_t>();
    } catch (const TransportError&) {
    }
  }
}

TEST(PacketWire, VarintRoundTripAndTruncation) {
  std::vector<std::uint8_t> buf;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1ULL << 32,
                                  ~0ULL};
  for (const std::uint64_t v : values) append_varint(buf, v);
  std::size_t cursor = 0;
  for (const std::uint64_t v : values) {
    EXPECT_EQ(read_varint(buf.data(), buf.size(), cursor), v);
  }
  EXPECT_EQ(cursor, buf.size());
  for (std::size_t len = 0; len < buf.size(); ++len) {
    std::size_t c = 0;
    try {
      while (c < len) (void)read_varint(buf.data(), len, c);
    } catch (const TransportError&) {
      continue;  // truncated tail surfaces as the typed error
    }
  }
  EXPECT_EQ(zigzag_decode(zigzag_encode(-1)), -1);
  EXPECT_EQ(zigzag_decode(zigzag_encode(INT64_MIN)), INT64_MIN);
  EXPECT_EQ(zigzag_decode(zigzag_encode(INT64_MAX)), INT64_MAX);
}

// ------------------------------------------------------------------ filters

TEST(Filters, ParseChainSpecs) {
  EXPECT_TRUE(parse_filter_chain("").empty());
  const FilterChain delta = parse_filter_chain("delta");
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0]->name(), "delta");
  EXPECT_THROW((void)parse_filter_chain("nonsense"), TransportError);
  if (zlib_filter_available()) {
    EXPECT_EQ(parse_filter_chain("delta,zlib").size(), 2u);
  } else {
    EXPECT_THROW((void)parse_filter_chain("delta,zlib"), TransportError);
  }
}

TEST(Filters, DeltaShrinksSortedIndexVectors) {
  Packet p;
  std::vector<std::int64_t> sorted;
  for (std::int64_t v = 1000000; v < 1004000; ++v) sorted.push_back(v);
  p.pack_vector(sorted);
  const FilterChain chain = parse_filter_chain("delta");
  const std::vector<std::uint8_t> original = p.bytes();
  std::vector<std::uint8_t> encoded = encode_through(chain, original);
  // 8-byte elements with unit deltas should approach one byte each.
  EXPECT_LT(encoded.size(), original.size() / 4);
  const std::vector<std::uint8_t> decoded =
      decode_through({chain[0]->id()}, std::move(encoded));
  EXPECT_EQ(decoded, original);
}

TEST(Filters, DeltaIsBijectiveOnUnsortedAndExtremeValues) {
  Packet p;
  p.pack_vector(std::vector<std::int64_t>{INT64_MAX, INT64_MIN, 0, -1, 7});
  p.pack_vector(std::vector<std::int32_t>{INT32_MIN, INT32_MAX, -5, 5});
  std::vector<std::uint32_t> random_u32;
  std::mt19937 rng(99);
  for (int i = 0; i < 1000; ++i) random_u32.push_back(rng());
  p.pack_vector(random_u32);
  p.pack(1.5);  // scalars and non-integer-width vectors pass through
  p.pack_vector(std::vector<double>{1.0, 2.0});
  const FilterChain chain = parse_filter_chain("delta");
  const std::vector<std::uint8_t> original = p.bytes();
  const std::vector<std::uint8_t> decoded = decode_through(
      {chain[0]->id()}, encode_through(chain, original));
  EXPECT_EQ(decoded, original);
}

TEST(Filters, DecodeOfGarbageThrowsTyped) {
  const FilterChain chain = parse_filter_chain("delta");
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(1 + rng() % 64);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    try {
      (void)chain[0]->decode(garbage);
    } catch (const TransportError&) {
    }
  }
  EXPECT_THROW((void)decode_through({0xEE}, {1, 2, 3}), TransportError);
}

TEST(Filters, ZlibRoundTripWhenAvailable) {
  if (!zlib_filter_available()) GTEST_SKIP() << "built without zlib";
  const FilterChain chain = parse_filter_chain("delta,zlib");
  Packet p;
  std::vector<std::int32_t> repetitive(5000, 123456);
  p.pack_vector(repetitive);
  const std::vector<std::uint8_t> original = p.bytes();
  std::vector<std::uint8_t> encoded = encode_through(chain, original);
  EXPECT_LT(encoded.size(), original.size() / 8);
  std::vector<std::uint8_t> ids;
  for (const auto& f : chain) ids.push_back(f->id());
  EXPECT_EQ(decode_through(ids, std::move(encoded)), original);
}

TEST(Filters, ZlibFrameClaimingTooMuchIsATransportError) {
  if (!zlib_filter_available()) GTEST_SKIP() << "built without zlib";
  const Filter* zlib = find_filter("zlib");
  ASSERT_NE(zlib, nullptr);
  // A real frame whose size prefix is rewritten to claim 2^39 bytes: the
  // filter must refuse it before allocating, not end in bad_alloc.
  std::vector<std::uint8_t> payload(4096, 7);
  const std::vector<std::uint8_t> encoded = zlib->encode(payload);
  std::size_t cursor = 0;
  (void)read_varint(encoded.data(), encoded.size(), cursor);
  std::vector<std::uint8_t> hostile;
  append_varint(hostile, std::uint64_t{1} << 39);
  hostile.insert(hostile.end(),
                 encoded.begin() + static_cast<std::ptrdiff_t>(cursor),
                 encoded.end());
  EXPECT_THROW((void)zlib->decode(hostile), TransportError);
  // The true claim still decodes.
  EXPECT_EQ(zlib->decode(encoded), payload);
}

}  // namespace
}  // namespace pigp::net
