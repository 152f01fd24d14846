#ifndef MRLQUANT_UTIL_SERDE_H_
#define MRLQUANT_UTIL_SERDE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

// Every layout below is little-endian, and so is every host this builds on:
// fixed-width fields and value arrays are plain memcpys of the native bytes.
static_assert(std::endian::native == std::endian::little,
              "mrlquant's wire and disk formats assume a little-endian host");

// Loads and stores at a raw pointer, for fixed-offset fields (frame
// headers, trailers). Callers bound-check; `p` need not be aligned.

inline std::uint16_t LoadU16Le(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t LoadU32Le(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreU32Le(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}

/// Little-endian binary encoder over a caller-owned buffer: appends to
/// *out, keeping the bytes already there.
///
/// The three length-prefixed layouts each have one writer here and one
/// reader in BinaryReader:
///   values:   | u64 count | count doubles |  (PutValues / GetValues)
///   blob:     | u32 len | len bytes |        (PutBlob / GetBlob)
///   string16: | u16 len | len bytes |        (PutString16 / GetString16)
class BinaryWriter {
 public:
  explicit BinaryWriter(std::vector<std::uint8_t>* out) : out_(out) {}

  void PutU8(std::uint8_t v) { out_->push_back(v); }
  void PutU16(std::uint16_t v) { PutRaw(v); }
  void PutU32(std::uint32_t v) { PutRaw(v); }
  void PutU64(std::uint64_t v) { PutRaw(v); }
  void PutI32(std::int32_t v) { PutRaw(v); }
  void PutDouble(double v) { PutRaw(v); }

  void PutBytes(const std::uint8_t* data, std::size_t n) {
    out_->insert(out_->end(), data, data + n);
  }

  void PutValues(std::span<const Value> values) {
    PutU64(values.size());
    PutBytes(reinterpret_cast<const std::uint8_t*>(values.data()),
             values.size_bytes());
  }

  void PutBlob(std::span<const std::uint8_t> blob) {
    MRL_CHECK_LE(blob.size(), std::size_t{0xFFFFFFFF});
    PutU32(static_cast<std::uint32_t>(blob.size()));
    PutBytes(blob.data(), blob.size());
  }

  void PutString16(std::string_view s) {
    MRL_CHECK_LE(s.size(), std::size_t{0xFFFF});
    PutU16(static_cast<std::uint16_t>(s.size()));
    PutBytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  std::size_t size() const { return out_->size(); }

 protected:
  std::vector<std::uint8_t>& buffer() { return *out_; }

 private:
  template <typename T>
  void PutRaw(T v) {
    PutBytes(reinterpret_cast<const std::uint8_t*>(&v), sizeof(v));
  }

  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked decoder. Every Get* returns false (and latches an error
/// status) on truncated input; callers may batch reads and check status()
/// once. Borrowed results point into the input and live as long as it.
class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(std::span<const std::uint8_t> bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  bool GetU8(std::uint8_t* out) { return GetRaw(out); }
  bool GetU16(std::uint16_t* out) { return GetRaw(out); }
  bool GetU32(std::uint32_t* out) { return GetRaw(out); }
  bool GetU64(std::uint64_t* out) { return GetRaw(out); }
  bool GetI32(std::int32_t* out) { return GetRaw(out); }
  bool GetDouble(double* out) { return GetRaw(out); }

  /// Points *out at the next `n` bytes (borrowed from the input) and skips
  /// past them.
  bool GetBytes(std::size_t n, const std::uint8_t** out) {
    if (!Require(n)) return false;
    *out = data_ + pos_;
    pos_ += n;
    return true;
  }

  /// Reads a value array in place: *le points at *count little-endian
  /// doubles, borrowed and possibly unaligned. A count that exceeds the
  /// remaining bytes (corrupt or adversarial input) is rejected.
  bool GetValues(const std::uint8_t** le, std::uint64_t* count) {
    std::uint64_t n;
    if (!GetU64(&n)) return false;
    if (n > Remaining() / sizeof(double)) {
      Fail("value vector length exceeds remaining input");
      return false;
    }
    *count = n;
    return GetBytes(static_cast<std::size_t>(n) * sizeof(double), le);
  }

  /// Reads a value array into *out (capacity reused).
  bool GetValues(std::vector<Value>* out) {
    const std::uint8_t* le;
    std::uint64_t n;
    if (!GetValues(&le, &n)) return false;
    out->resize(static_cast<std::size_t>(n));
    if (n != 0) std::memcpy(out->data(), le, n * sizeof(double));
    return true;
  }

  /// Reads a blob, borrowed from the input.
  bool GetBlob(std::span<const std::uint8_t>* out) {
    std::uint32_t n;
    const std::uint8_t* bytes;
    if (!GetU32(&n) || !GetBytes(n, &bytes)) return false;
    *out = std::span<const std::uint8_t>(bytes, n);
    return true;
  }

  /// Reads a string16, borrowed from the input; its bytes are not checked.
  bool GetString16(std::string_view* out) {
    std::uint16_t n;
    const std::uint8_t* bytes;
    if (!GetU16(&n) || !GetBytes(n, &bytes)) return false;
    *out = std::string_view(reinterpret_cast<const char*>(bytes), n);
    return true;
  }

  std::size_t Remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_ && status_.ok(); }
  const Status& status() const { return status_; }

  /// Latches a custom decode error (e.g. semantic validation failure).
  void Fail(const std::string& message) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument("decode error: " + message);
    }
  }

 private:
  bool Require(std::size_t n) {
    if (!status_.ok()) return false;
    if (size_ - pos_ < n) {
      Fail("truncated input");
      return false;
    }
    return true;
  }

  template <typename T>
  bool GetRaw(T* out) {
    if (!Require(sizeof(T))) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  Status status_;
};

/// Kind byte of an "MRLQ" sketch checkpoint (docs/checkpoint_format.md).
/// Bytes 4 (the sharded sketch), 5 (KLL) and 6 (the deterministic
/// reservoir) belonged to retired checkpoint formats; they are never
/// reused.
enum class CheckpointKind : std::uint8_t {
  kUnknownN = 1,
  kKnownN = 2,
  kExtremeValue = 3,
};

inline constexpr std::uint32_t kCheckpointMagic = 0x4D524C51;  // "MRLQ"
// Version 2 added the sampler's pre-drawn pick offset to kinds 1-2; the
// other kinds' layouts are unchanged from version 1.
inline constexpr std::uint8_t kCheckpointVersion = 2;

/// Writes the header every sketch checkpoint opens with: the magic, the
/// format version and `kind`.
inline void PutCheckpointHeader(BinaryWriter* writer, CheckpointKind kind) {
  writer->PutU32(kCheckpointMagic);
  writer->PutU8(kCheckpointVersion);
  writer->PutU8(static_cast<std::uint8_t>(kind));
}

/// Reads a checkpoint header, accepting only `kind` at the current version.
inline Status GetCheckpointHeader(BinaryReader* reader, CheckpointKind kind) {
  std::uint32_t magic;
  std::uint8_t version, read_kind;
  if (!reader->GetU32(&magic) || !reader->GetU8(&version) ||
      !reader->GetU8(&read_kind)) {
    return reader->status();
  }
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument("not an mrlquant checkpoint");
  }
  if (version != kCheckpointVersion ||
      read_kind != static_cast<std::uint8_t>(kind)) {
    return Status::InvalidArgument("unsupported checkpoint version or kind");
  }
  return Status::OK();
}

}  // namespace mrl

#endif  // MRLQUANT_UTIL_SERDE_H_
