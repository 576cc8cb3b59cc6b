#include "common/schema.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/string_util.h"

namespace streamrel {

std::optional<size_t> Schema::IndexOf(const std::string& name,
                                      const std::string& qualifier) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name) &&
        (qualifier.empty() ||
         EqualsIgnoreCase(columns_[i].qualifier, qualifier))) {
      return i;
    }
  }
  return std::nullopt;
}

Result<size_t> Schema::FindColumn(const std::string& name,
                                  const std::string& qualifier) const {
  std::optional<size_t> found;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name) &&
        (qualifier.empty() ||
         EqualsIgnoreCase(columns_[i].qualifier, qualifier))) {
      if (found.has_value()) {
        return Status::BindError("ambiguous column reference: " +
                                 (qualifier.empty() ? name
                                                    : qualifier + "." + name));
      }
      found = i;
    }
  }
  if (!found.has_value()) {
    return Status::BindError("column not found: " +
                             (qualifier.empty() ? name
                                                : qualifier + "." + name));
  }
  return *found;
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Column> cols = left.columns_;
  cols.insert(cols.end(), right.columns_.begin(), right.columns_.end());
  return Schema(std::move(cols));
}

Schema Schema::WithQualifier(const std::string& qualifier) const {
  std::vector<Column> cols = columns_;
  for (Column& c : cols) c.qualifier = qualifier;
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    if (!columns_[i].qualifier.empty()) {
      out += columns_[i].qualifier + ".";
    }
    out += columns_[i].name;
    out += " ";
    out += DataTypeToString(columns_[i].type);
  }
  return out;
}

bool Schema::Equals(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!EqualsIgnoreCase(columns_[i].name, other.columns_[i].name) ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

void SerializeRow(const Row& row, std::string* out) {
  PutU32(static_cast<uint32_t>(row.size()), out);
  for (const Value& v : row) v.Serialize(out);
}

Result<Row> DeserializeRow(const std::string& data, size_t* offset) {
  uint32_t n = 0;
  RETURN_IF_ERROR(GetFixed(data, offset, &n));
  Row row;
  // Every value needs at least its 1-byte type tag.
  row.reserve(std::min<size_t>(n, data.size() - *offset));
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(Value v, Value::Deserialize(data, offset));
    row.push_back(std::move(v));
  }
  return row;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace streamrel
