#ifndef STREAMREL_COMMON_BYTES_H_
#define STREAMREL_COMMON_BYTES_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"

namespace streamrel {

/// The byte put/get helpers every codec shares (values, rows, wire frames,
/// WAL records, checkpoints). Numbers are in host byte order; a string is a
/// u32 length and its bytes; a row list is a u32 count and the rows. Every
/// Get checks the bytes left and fails with kIoError on truncated input.

inline void PutU32(uint32_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutU64(uint64_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutI64(int64_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}
inline void PutRows(const std::vector<Row>& rows, std::string* out) {
  PutU32(static_cast<uint32_t>(rows.size()), out);
  for (const Row& row : rows) SerializeRow(row, out);
}

/// Reads a fixed-width number (an integer or a double).
template <typename T>
Status GetFixed(const std::string& data, size_t* offset, T* v) {
  if (*offset + sizeof(*v) > data.size()) {
    return Status::IoError("truncated " + std::to_string(sizeof(*v)) +
                           "-byte field");
  }
  memcpy(v, data.data() + *offset, sizeof(*v));
  *offset += sizeof(*v);
  return Status::OK();
}
inline Status GetString(const std::string& data, size_t* offset,
                        std::string* s) {
  uint32_t len = 0;
  RETURN_IF_ERROR(GetFixed(data, offset, &len));
  if (*offset + len > data.size()) {
    return Status::IoError("truncated string payload");
  }
  s->assign(data, *offset, len);
  *offset += len;
  return Status::OK();
}
inline Status GetRows(const std::string& data, size_t* offset,
                      std::vector<Row>* rows) {
  uint32_t n = 0;
  RETURN_IF_ERROR(GetFixed(data, offset, &n));
  rows->clear();
  // Every row needs at least its 4-byte arity.
  rows->reserve(std::min<size_t>(n, (data.size() - *offset) / sizeof(n)));
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(Row row, DeserializeRow(data, offset));
    rows->push_back(std::move(row));
  }
  return Status::OK();
}

}  // namespace streamrel

#endif  // STREAMREL_COMMON_BYTES_H_
