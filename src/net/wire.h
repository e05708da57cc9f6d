// Binary wire codec primitives (DESIGN.md §7).
//
// WireWriter appends fixed-width little-endian scalars, LEB128 varints and
// length-prefixed byte strings to a growing buffer; WireReader consumes the
// same encoding with bounds checks on every read, returning kParseError the
// moment a field runs past the buffer — a truncated or corrupted payload can
// never read out of bounds or allocate more than the payload it arrived in.
// Message-level codecs (audit specs, reports, protocol rounds) live in
// src/svc/proto.h on top of these primitives.

#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace indaas {
namespace net {

class WireWriter {
 public:
  void U8(uint8_t value);
  void U16(uint16_t value);
  void U32(uint32_t value);
  void U64(uint64_t value);
  void Bool(bool value) { U8(value ? 1 : 0); }
  void F64(double value);  // IEEE-754 bits as U64
  // Unsigned LEB128: 7 bits per byte, low group first, high bit = more
  // bytes follow. 1 byte below 128, at most 10 bytes.
  void Var(uint64_t value);
  // u32 length prefix + raw bytes.
  void Bytes(std::string_view data);
  // Varint length prefix + raw bytes.
  void VarBytes(std::string_view data);
  void Str(const std::string& text) { Bytes(text); }
  void StrVec(const std::vector<std::string>& items);

  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint16_t> U16();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<bool> Bool();
  Result<double> F64();
  // Rejects truncated, overlong (a zero final byte after the first) and
  // beyond-64-bit encodings, so each value has exactly one encoding.
  Result<uint64_t> Var();
  Result<std::string> Bytes();
  Result<std::string> VarBytes();
  Result<std::string> Str() { return Bytes(); }
  Result<std::vector<std::string>> StrVec();

  // A repeated-field count (u32, or varint for VarCount), rejected unless
  // `count * min_item_bytes` fits in what is left of the payload, so a
  // hostile count is refused before any `reserve` sized by it.
  Result<uint32_t> Count(size_t min_item_bytes);
  Result<uint32_t> VarCount(size_t min_item_bytes);

  // True when every byte has been consumed; codecs check this to reject
  // trailing garbage.
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t bytes);
  Status Fits(uint64_t count, size_t min_item_bytes) const;

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace net
}  // namespace indaas

#endif  // SRC_NET_WIRE_H_
