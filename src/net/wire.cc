#include "src/net/wire.h"

#include <cstring>

#include "src/util/strings.h"

namespace indaas {
namespace net {

void WireWriter::U8(uint8_t value) { buffer_.push_back(static_cast<char>(value)); }

void WireWriter::U16(uint16_t value) {
  buffer_.push_back(static_cast<char>(value & 0xFF));
  buffer_.push_back(static_cast<char>((value >> 8) & 0xFF));
}

void WireWriter::U32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void WireWriter::U64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void WireWriter::F64(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  U64(bits);
}

void WireWriter::Var(uint64_t value) {
  while (value >= 0x80) {
    buffer_.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  buffer_.push_back(static_cast<char>(value));
}

void WireWriter::Bytes(std::string_view data) {
  U32(static_cast<uint32_t>(data.size()));
  buffer_.append(data.data(), data.size());
}

void WireWriter::VarBytes(std::string_view data) {
  Var(data.size());
  buffer_.append(data.data(), data.size());
}

void WireWriter::StrVec(const std::vector<std::string>& items) {
  U32(static_cast<uint32_t>(items.size()));
  for (const std::string& item : items) {
    Bytes(item);
  }
}

Status WireReader::Need(size_t bytes) {
  if (data_.size() - pos_ < bytes) {
    return ParseError(StrFormat("wire payload truncated: need %zu bytes, have %zu", bytes,
                                data_.size() - pos_));
  }
  return Status::Ok();
}

Result<uint8_t> WireReader::U8() {
  INDAAS_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint16_t> WireReader::U16() {
  INDAAS_RETURN_IF_ERROR(Need(2));
  uint16_t value = 0;
  for (int shift = 0; shift < 16; shift += 8) {
    value |= static_cast<uint16_t>(static_cast<unsigned char>(data_[pos_++])) << shift;
  }
  return value;
}

Result<uint32_t> WireReader::U32() {
  INDAAS_RETURN_IF_ERROR(Need(4));
  uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_++])) << shift;
  }
  return value;
}

Result<uint64_t> WireReader::U64() {
  INDAAS_RETURN_IF_ERROR(Need(8));
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_++])) << shift;
  }
  return value;
}

Result<bool> WireReader::Bool() {
  INDAAS_ASSIGN_OR_RETURN(uint8_t value, U8());
  if (value > 1) {
    return ParseError(StrFormat("bad bool byte %u", value));
  }
  return value == 1;
}

Result<double> WireReader::F64() {
  INDAAS_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<uint64_t> WireReader::Var() {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    INDAAS_RETURN_IF_ERROR(Need(1));
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    // The tenth byte holds bit 63 only.
    if (shift == 63 && byte > 1) {
      return ParseError("wire varint exceeds 64 bits");
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift > 0) {
        return ParseError("wire varint is not minimally encoded");
      }
      return value;
    }
  }
  return ParseError("wire varint exceeds 64 bits");
}

Result<std::string> WireReader::Bytes() {
  INDAAS_ASSIGN_OR_RETURN(uint32_t length, U32());
  INDAAS_RETURN_IF_ERROR(Need(length));
  std::string out(data_.substr(pos_, length));
  pos_ += length;
  return out;
}

Result<std::string> WireReader::VarBytes() {
  INDAAS_ASSIGN_OR_RETURN(uint64_t length, Var());
  INDAAS_RETURN_IF_ERROR(Need(length));
  std::string out(data_.substr(pos_, length));
  pos_ += length;
  return out;
}

Status WireReader::Fits(uint64_t count, size_t min_item_bytes) const {
  // The count is checked below 2^32 first and item sizes are small, so the
  // product cannot wrap.
  if (count > UINT32_MAX || count * min_item_bytes > remaining()) {
    return ParseError(StrFormat("wire count %llu exceeds payload (%zu bytes left)",
                                static_cast<unsigned long long>(count), remaining()));
  }
  return Status::Ok();
}

Result<uint32_t> WireReader::Count(size_t min_item_bytes) {
  INDAAS_ASSIGN_OR_RETURN(uint32_t count, U32());
  INDAAS_RETURN_IF_ERROR(Fits(count, min_item_bytes));
  return count;
}

Result<uint32_t> WireReader::VarCount(size_t min_item_bytes) {
  INDAAS_ASSIGN_OR_RETURN(uint64_t count, Var());
  INDAAS_RETURN_IF_ERROR(Fits(count, min_item_bytes));
  return static_cast<uint32_t>(count);
}

Result<std::vector<std::string>> WireReader::StrVec() {
  // Each entry costs at least its 4-byte length prefix.
  INDAAS_ASSIGN_OR_RETURN(uint32_t count, Count(4));
  std::vector<std::string> items;
  items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    INDAAS_ASSIGN_OR_RETURN(std::string item, Bytes());
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace net
}  // namespace indaas
