#ifndef MRLQUANT_UTIL_SERDE_H_
#define MRLQUANT_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/types.h"

namespace mrl {

// Little-endian loads and stores at a raw pointer, for fixed-offset fields
// (frame headers, trailers) and bulk value arrays. Callers bound-check.

inline std::uint16_t LoadU16Le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

inline std::uint32_t LoadU32Le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t LoadU64Le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

inline double LoadDoubleLe(const std::uint8_t* p) {
  const std::uint64_t bits = LoadU64Le(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

inline void StoreU32Le(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = (v >> (8 * i)) & 0xff;
}

/// Little-endian binary encoder over a caller-owned buffer: appends to
/// *out, keeping the bytes already there.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::vector<std::uint8_t>* out) : out_(out) {}

  void PutU8(std::uint8_t v) { out_->push_back(v); }

  void PutU16(std::uint16_t v) {
    std::vector<std::uint8_t>& out = *out_;
    out.push_back(v & 0xff);
    out.push_back((v >> 8) & 0xff);
  }

  void PutU32(std::uint32_t v) {
    std::vector<std::uint8_t>& out = *out_;
    for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xff);
  }

  void PutU64(std::uint64_t v) {
    std::vector<std::uint8_t>& out = *out_;
    for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
  }

  void PutI32(std::int32_t v) { PutU32(static_cast<std::uint32_t>(v)); }

  void PutDouble(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  void PutBytes(const std::uint8_t* data, std::size_t n) {
    out_->insert(out_->end(), data, data + n);
  }

  void PutValues(const std::vector<Value>& values) {
    PutU64(values.size());
    for (Value v : values) PutDouble(v);
  }

  std::size_t size() const { return out_->size(); }

 protected:
  std::vector<std::uint8_t>& buffer() { return *out_; }

 private:
  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked decoder. Every Get* returns false (and latches an error
/// status) on truncated input; callers may batch reads and check status()
/// once.
class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(std::span<const std::uint8_t> bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  bool GetU8(std::uint8_t* out) {
    if (!Require(1)) return false;
    *out = data_[pos_++];
    return true;
  }

  bool GetU16(std::uint16_t* out) {
    if (!Require(2)) return false;
    *out = LoadU16Le(data_ + pos_);
    pos_ += 2;
    return true;
  }

  bool GetU32(std::uint32_t* out) {
    if (!Require(4)) return false;
    *out = LoadU32Le(data_ + pos_);
    pos_ += 4;
    return true;
  }

  bool GetU64(std::uint64_t* out) {
    if (!Require(8)) return false;
    *out = LoadU64Le(data_ + pos_);
    pos_ += 8;
    return true;
  }

  bool GetI32(std::int32_t* out) {
    std::uint32_t v;
    if (!GetU32(&v)) return false;
    *out = static_cast<std::int32_t>(v);
    return true;
  }

  bool GetDouble(double* out) {
    std::uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }

  /// Points *out at the next `n` bytes (borrowed from the input) and skips
  /// past them.
  bool GetBytes(std::size_t n, const std::uint8_t** out) {
    if (!Require(n)) return false;
    *out = data_ + pos_;
    pos_ += n;
    return true;
  }

  /// Reads a length-prefixed value vector; rejects lengths that exceed the
  /// remaining bytes (corrupt or adversarial input).
  bool GetValues(std::vector<Value>* out) {
    std::uint64_t n;
    if (!GetU64(&n)) return false;
    if (n > Remaining() / sizeof(double)) {
      Fail("value vector length exceeds remaining input");
      return false;
    }
    out->clear();
    out->reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      double v;
      if (!GetDouble(&v)) return false;
      out->push_back(v);
    }
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
