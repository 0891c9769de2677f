#include "runtime/net/filters.hpp"

#include <cstring>

#include "runtime/net/packet.hpp"

#ifdef PIGP_HAVE_ZLIB
#include <zlib.h>
#endif

namespace pigp::net {
namespace {

/// Load a little-endian unsigned integer of \p width (4 or 8) bytes.
std::uint64_t load_uint(const std::uint8_t* p, std::size_t width) {
  if (width == 4) {
    std::uint32_t v = 0;
    std::memcpy(&v, p, 4);
    return v;
  }
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

void store_uint(std::vector<std::uint8_t>& out, std::uint64_t v,
                std::size_t width) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), bytes, bytes + width);
}

/// Sign-extend a wrapped \p width-byte difference for zigzag coding, so a
/// small negative step costs one varint byte regardless of element width.
std::int64_t signed_delta(std::uint64_t diff, std::size_t width) {
  if (width == 4) return static_cast<std::int32_t>(diff);
  return static_cast<std::int64_t>(diff);
}

class DeltaVarintFilter final : public Filter {
 public:
  [[nodiscard]] std::uint8_t id() const noexcept override { return 1; }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "delta";
  }

  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::vector<std::uint8_t> bytes) const override {
    std::vector<std::uint8_t> out;
    out.reserve(bytes.size());
    std::size_t cursor = 0;
    const std::size_t size = bytes.size();
    const std::uint8_t* data = bytes.data();
    while (cursor < size) {
      const auto tag = static_cast<WireTag>(data[cursor]);
      if (tag == WireTag::kScalar) {
        if (cursor + 2 > size) throw TransportError("scalar header truncated");
        const std::size_t width = data[cursor + 1];
        if (cursor + 2 + width > size) {
          throw TransportError("scalar payload truncated");
        }
        out.insert(out.end(), data + cursor, data + cursor + 2 + width);
        cursor += 2 + width;
      } else if (tag == WireTag::kVector) {
        if (cursor + 2 + 8 > size) throw TransportError("vector header truncated");
        const std::size_t width = data[cursor + 1];
        std::uint64_t count = 0;
        std::memcpy(&count, data + cursor + 2, 8);
        if (count > (size - cursor - 10) / std::max<std::size_t>(width, 1)) {
          throw TransportError("vector count exceeds payload");
        }
        const std::uint8_t* payload = data + cursor + 10;
        if (width == 4 || width == 8) {
          // Rewrite as kDeltaVec: zigzag varints of wrapped consecutive
          // differences — bijective on every bit pattern.
          out.push_back(static_cast<std::uint8_t>(WireTag::kDeltaVec));
          out.push_back(static_cast<std::uint8_t>(width));
          append_varint(out, count);
          std::uint64_t prev = 0;
          for (std::uint64_t i = 0; i < count; ++i) {
            const std::uint64_t cur = load_uint(payload + i * width, width);
            append_varint(out, zigzag_encode(signed_delta(cur - prev, width)));
            prev = cur;
          }
        } else {
          out.insert(out.end(), data + cursor,
                     data + cursor + 10 +
                         static_cast<std::size_t>(count) * width);
        }
        cursor += 10 + static_cast<std::size_t>(count) * width;
      } else {
        throw TransportError("unknown wire tag in delta filter");
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<std::uint8_t> decode(
      std::vector<std::uint8_t> bytes) const override {
    std::vector<std::uint8_t> out;
    out.reserve(bytes.size() * 2);
    std::size_t cursor = 0;
    const std::size_t size = bytes.size();
    const std::uint8_t* data = bytes.data();
    while (cursor < size) {
      const auto tag = static_cast<WireTag>(data[cursor]);
      if (tag == WireTag::kScalar || tag == WireTag::kVector) {
        if (cursor + 2 > size) throw TransportError("header truncated");
        const std::size_t width = data[cursor + 1];
        std::size_t len = 2 + width;
        if (tag == WireTag::kVector) {
          if (cursor + 10 > size) {
            throw TransportError("vector header truncated");
          }
          std::uint64_t count = 0;
          std::memcpy(&count, data + cursor + 2, 8);
          if (count > (size - cursor - 10) / std::max<std::size_t>(width, 1)) {
            throw TransportError("vector count exceeds payload");
          }
          len = 10 + static_cast<std::size_t>(count) * width;
        }
        if (cursor + len > size) throw TransportError("payload truncated");
        out.insert(out.end(), data + cursor, data + cursor + len);
        cursor += len;
      } else if (tag == WireTag::kDeltaVec) {
        if (cursor + 2 > size) throw TransportError("header truncated");
        const std::size_t width = data[cursor + 1];
        if (width != 4 && width != 8) {
          throw TransportError("delta vector with unsupported element size");
        }
        cursor += 2;
        const std::uint64_t count = read_varint(data, size, cursor);
        // Worst case each element needs width bytes in the output; bound
        // the allocation by the *output* the varints can legally produce.
        if (count > (1ULL << 32)) {
          throw TransportError("delta vector count implausible");
        }
        out.push_back(static_cast<std::uint8_t>(WireTag::kVector));
        out.push_back(static_cast<std::uint8_t>(width));
        store_uint(out, count, 8);
        std::uint64_t prev = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::int64_t d = zigzag_decode(read_varint(data, size, cursor));
          prev += static_cast<std::uint64_t>(d);
          if (width == 4) prev &= 0xFFFFFFFFULL;
          store_uint(out, prev, width);
        }
      } else {
        throw TransportError("unknown wire tag in delta filter");
      }
    }
    return out;
  }
};

#ifdef PIGP_HAVE_ZLIB
/// Deflate's largest expansion ratio (a run of one byte).
constexpr std::uint64_t kMaxZlibRatio = 1032;

class ZlibFilter final : public Filter {
 public:
  [[nodiscard]] std::uint8_t id() const noexcept override { return 2; }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "zlib";
  }

  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::vector<std::uint8_t> bytes) const override {
    // Prefix the original size so decode can allocate exactly once.
    std::vector<std::uint8_t> out;
    append_varint(out, bytes.size());
    uLongf bound = compressBound(static_cast<uLong>(bytes.size()));
    const std::size_t header = out.size();
    out.resize(header + bound);
    const int rc =
        compress2(out.data() + header, &bound,
                  bytes.empty() ? reinterpret_cast<const Bytef*>("")
                                : bytes.data(),
                  static_cast<uLong>(bytes.size()), Z_DEFAULT_COMPRESSION);
    if (rc != Z_OK) throw TransportError("zlib compress failed");
    out.resize(header + bound);
    return out;
  }

  [[nodiscard]] std::vector<std::uint8_t> decode(
      std::vector<std::uint8_t> bytes) const override {
    std::size_t cursor = 0;
    const std::uint64_t original =
        read_varint(bytes.data(), bytes.size(), cursor);
    // A claim deflate cannot reach from these bytes is a corrupt or
    // hostile frame: refuse it before allocating the output.
    const std::uint64_t compressed = bytes.size() - cursor;
    if (original > kMaxZlibRatio * compressed + 64) {
      throw TransportError("zlib frame claims implausible size");
    }
    std::vector<std::uint8_t> out(static_cast<std::size_t>(original));
    uLongf out_len = static_cast<uLongf>(original);
    const int rc = uncompress(
        out.empty() ? reinterpret_cast<Bytef*>(&out_len) : out.data(),
        &out_len, bytes.data() + cursor,
        static_cast<uLong>(bytes.size() - cursor));
    if (original == 0) return {};
    if (rc != Z_OK || out_len != original) {
      throw TransportError("zlib payload corrupted");
    }
    return out;
  }
};
#endif  // PIGP_HAVE_ZLIB

const DeltaVarintFilter kDeltaFilter;
#ifdef PIGP_HAVE_ZLIB
const ZlibFilter kZlibFilter;
#endif

}  // namespace

const Filter* find_filter(std::uint8_t id) {
  if (id == kDeltaFilter.id()) return &kDeltaFilter;
#ifdef PIGP_HAVE_ZLIB
  if (id == kZlibFilter.id()) return &kZlibFilter;
#endif
  return nullptr;
}

const Filter* find_filter(std::string_view name) {
  if (name == kDeltaFilter.name()) return &kDeltaFilter;
#ifdef PIGP_HAVE_ZLIB
  if (name == kZlibFilter.name()) return &kZlibFilter;
#endif
  return nullptr;
}

FilterChain parse_filter_chain(std::string_view spec) {
  FilterChain chain;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view name = spec.substr(start, end - start);
    if (!name.empty()) {
      const Filter* filter = find_filter(name);
      if (filter == nullptr) {
        // Configuration-time, not wire-time: retrying an unknown filter
        // name cannot succeed.
        throw TransportError(
            "unknown wire filter \"" + std::string(name) +
                "\" (known: delta" +
                (zlib_filter_available() ? ", zlib)"
                                         : "; zlib unavailable in "
                                           "this build)"),
            FaultClass::fatal);
      }
      // Built-ins are static singletons; alias shared_ptr with no deleter.
      chain.push_back(std::shared_ptr<const Filter>(filter, [](auto*) {}));
    }
    if (end == spec.size()) break;
    start = end + 1;
  }
  return chain;
}

std::vector<std::uint8_t> encode_through(const FilterChain& chain,
                                         std::vector<std::uint8_t> bytes) {
  for (const auto& filter : chain) bytes = filter->encode(std::move(bytes));
  return bytes;
}

std::vector<std::uint8_t> decode_through(const std::vector<std::uint8_t>& ids,
                                         std::vector<std::uint8_t> bytes) {
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    const Filter* filter = find_filter(*it);
    if (filter == nullptr) {
      throw TransportError("frame names unknown filter id " +
                           std::to_string(static_cast<int>(*it)));
    }
    bytes = filter->decode(std::move(bytes));
  }
  return bytes;
}

bool zlib_filter_available() noexcept {
#ifdef PIGP_HAVE_ZLIB
  return true;
#else
  return false;
#endif
}

}  // namespace pigp::net
