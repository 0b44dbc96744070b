// Shared binary-envelope I/O for every on-disk format in the codebase
// (RemStore persistence, core::Snapshot checkpoints). One layout:
//
//   magic(4) | version(u32) | payload_size(u64) | crc32(u32) | payload
//
// The CRC covers the payload only; the writer buffers the payload so the
// header can be emitted first, and the reader slurps + verifies the payload
// before a single field is parsed. A flipped byte anywhere is rejected:
// magic -> BinCorruptError, version -> BinVersionError, size -> truncation
// or CRC mismatch, payload/crc -> BinCorruptError. All integers and doubles
// are raw little-endian host representation (the project targets a single
// ABI; doubles round-trip bit-exactly).
//
// An envelope may nest inside another's payload as a u64-length-prefixed
// blob (scenario::Campaign carries its fleet::Fleet this way):
// BinWriter::envelope builds it in place and parse_envelope verifies it in
// place, so the nested bytes are never copied out of the outer buffer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace skyran::geo {

/// Base class for every malformed-stream rejection. Derives from
/// std::runtime_error so pre-existing catch sites keep working.
struct BinFormatError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The stream ended before the format said it would.
struct BinTruncatedError : BinFormatError {
  using BinFormatError::BinFormatError;
};

/// Magic mismatch or CRC failure: the bytes are not (or are no longer) a
/// valid instance of the format.
struct BinCorruptError : BinFormatError {
  using BinFormatError::BinFormatError;
};

/// The envelope parsed but carries a version this build cannot read.
struct BinVersionError : BinFormatError {
  using BinFormatError::BinFormatError;
};

namespace detail {

/// Slice-by-8 CRC-32 tables: t[0] is the classic byte-at-a-time table of the
/// reflected polynomial; t[k][b] advances byte b followed by k zero bytes, so
/// eight table lookups fold eight input bytes at once.
struct Crc32Tables {
  std::uint32_t t[8][256];
};

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables k{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t s = i;
    for (int b = 0; b < 8; ++b) s = (s >> 1) ^ (0xEDB88320u & (~(s & 1u) + 1u));
    k.t[0][i] = s;
  }
  for (int j = 1; j < 8; ++j)
    for (std::uint32_t i = 0; i < 256; ++i)
      k.t[j][i] = (k.t[j - 1][i] >> 8) ^ k.t[0][k.t[j - 1][i] & 0xFFu];
  return k;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

/// Incremental CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), table-driven
/// slice-by-8; the values are those of the bitwise definition.
class Crc32 {
 public:
  void update(const void* data, std::size_t n) {
    const auto& t = detail::kCrc32Tables.t;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t s = state_;
    for (; n >= 8; p += 8, n -= 8) {
      const std::uint32_t lo = s ^ detail::load_le32(p);
      const std::uint32_t hi = detail::load_le32(p + 4);
      s = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) s = (s >> 8) ^ t[0][(s ^ *p) & 0xFFu];
    state_ = s;
  }

  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

  static std::uint32_t of(std::string_view bytes) {
    Crc32 c;
    c.update(bytes.data(), bytes.size());
    return c.value();
  }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// magic(4) + version(u32) + payload_size(u64) + crc32(u32).
inline constexpr std::size_t kEnvelopeHeaderBytes = 20;

/// Payload builder: accumulates fields into a buffer so the envelope writer
/// can prepend size + CRC.
class BinWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "BinWriter::pod needs a trivial type");
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  void bytes(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  /// Length-prefixed (u64) byte string.
  void str(std::string_view s) {
    pod(static_cast<std::uint64_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  /// Length-prefixed (u64) nested envelope, built in place: the bytes equal
  /// str(<what write_envelope emits for the payload>), where the payload is
  /// whatever write_payload(*this) appends — no intermediate buffer, and the
  /// length, size and CRC fields are patched once the payload is known.
  template <typename WritePayload>
  void envelope(const char magic[4], std::uint32_t version, WritePayload&& write_payload) {
    const std::size_t start = buf_.size();
    pod(std::uint64_t{0});  // nested length, patched below
    buf_.append(magic, 4);
    pod(version);
    pod(std::uint64_t{0});  // payload size, patched below
    pod(std::uint32_t{0});  // payload CRC, patched below
    const std::size_t payload_at = buf_.size();
    write_payload(*this);
    const auto size = static_cast<std::uint64_t>(buf_.size() - payload_at);
    patch(start, size + kEnvelopeHeaderBytes);
    patch(start + 16, size);
    patch(start + 24, Crc32::of(std::string_view(buf_).substr(payload_at)));
  }

  const std::string& buffer() const { return buf_; }

 private:
  template <typename T>
  void patch(std::size_t at, const T& v) {
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }

  std::string buf_;
};

/// Payload parser over an in-memory, CRC-verified buffer. Throws
/// BinTruncatedError on any read past the end — a prefix of a valid payload
/// can never parse as a shorter valid one.
class BinReader {
 public:
  explicit BinReader(std::string_view payload) : p_(payload.data()), end_(p_ + payload.size()) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>, "BinReader::pod needs a trivial type");
    if (static_cast<std::size_t>(end_ - p_) < sizeof(T))
      throw BinTruncatedError("binio: truncated payload");
    T v{};
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }

  std::string str() { return std::string(str_view()); }

  /// str() without the copy: a view into the reader's buffer.
  std::string_view str_view() {
    const auto n = pod<std::uint64_t>();
    if (static_cast<std::uint64_t>(end_ - p_) < n)
      throw BinTruncatedError("binio: truncated payload string");
    const std::string_view s(p_, static_cast<std::size_t>(n));
    p_ += n;
    return s;
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

/// Emit the full envelope for `payload` under `magic` (exactly 4 bytes).
inline void write_envelope(std::ostream& os, const char magic[4], std::uint32_t version,
                           const BinWriter& payload) {
  os.write(magic, 4);
  const auto write_pod = [&os](const auto& v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  write_pod(version);
  write_pod(static_cast<std::uint64_t>(payload.buffer().size()));
  write_pod(Crc32::of(payload.buffer()));
  os.write(payload.buffer().data(),
           static_cast<std::streamsize>(payload.buffer().size()));
}

struct Envelope {
  std::uint32_t version = 0;
  std::string payload;
};

/// Read and verify one envelope. `context` prefixes every error message
/// (e.g. "RemStore::load"). Versions outside [min_version, max_version]
/// throw BinVersionError. The stream is consumed exactly through the
/// payload; trailing bytes (e.g. an enclosing container) are left unread.
inline Envelope read_envelope(std::istream& is, const char magic[4], std::uint32_t min_version,
                              std::uint32_t max_version, const std::string& context) {
  char m[4];
  is.read(m, 4);
  if (!is) throw BinTruncatedError(context + ": truncated header");
  if (std::memcmp(m, magic, 4) != 0) throw BinCorruptError(context + ": bad magic");
  const auto read_pod = [&is, &context](auto& v) {
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    if (!is) throw BinTruncatedError(context + ": truncated header");
  };
  std::uint32_t version = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  read_pod(version);
  if (version < min_version || version > max_version)
    throw BinVersionError(context + ": unsupported version " + std::to_string(version));
  read_pod(size);
  read_pod(crc);
  Envelope e;
  e.version = version;
  // Chunked read: never pre-allocate the declared size. A corrupted size
  // field can claim exabytes; trusting it would turn a flipped byte into
  // std::bad_alloc instead of a typed truncation error. Memory grows only
  // with bytes the stream actually delivers.
  constexpr std::uint64_t kChunk = 1 << 20;
  while (static_cast<std::uint64_t>(e.payload.size()) < size) {
    const std::uint64_t want =
        std::min(kChunk, size - static_cast<std::uint64_t>(e.payload.size()));
    const std::size_t off = e.payload.size();
    e.payload.resize(off + static_cast<std::size_t>(want));
    is.read(e.payload.data() + off, static_cast<std::streamsize>(want));
    if (static_cast<std::uint64_t>(is.gcount()) != want)
      throw BinTruncatedError(context + ": truncated payload");
  }
  if (Crc32::of(e.payload) != crc) throw BinCorruptError(context + ": CRC mismatch");
  return e;
}

struct EnvelopeView {
  std::uint32_t version = 0;
  std::string_view payload;
};

/// read_envelope over bytes already in memory: the payload is a view into
/// `bytes`, not a copy. Same checks in the same order, so every malformed
/// input throws the same typed error with the same message as the stream
/// reader; bytes after the payload are ignored, as the stream reader leaves
/// them unread.
inline EnvelopeView parse_envelope(std::string_view bytes, const char magic[4],
                                   std::uint32_t min_version, std::uint32_t max_version,
                                   const std::string& context) {
  std::size_t at = 0;
  const auto take = [&](void* dst, std::size_t n, const char* what) {
    if (bytes.size() - at < n) throw BinTruncatedError(context + what);
    std::memcpy(dst, bytes.data() + at, n);
    at += n;
  };
  char m[4];
  take(m, 4, ": truncated header");
  if (std::memcmp(m, magic, 4) != 0) throw BinCorruptError(context + ": bad magic");
  std::uint32_t version = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  take(&version, sizeof(version), ": truncated header");
  if (version < min_version || version > max_version)
    throw BinVersionError(context + ": unsupported version " + std::to_string(version));
  take(&size, sizeof(size), ": truncated header");
  take(&crc, sizeof(crc), ": truncated header");
  if (static_cast<std::uint64_t>(bytes.size() - at) < size)
    throw BinTruncatedError(context + ": truncated payload");
  const std::string_view payload = bytes.substr(at, static_cast<std::size_t>(size));
  if (Crc32::of(payload) != crc) throw BinCorruptError(context + ": CRC mismatch");
  return {version, payload};
}

}  // namespace skyran::geo
