// Seeded drill for the INGEST_BATCH body decoder (ctest label: net).
//
// DecodeIngestBodyColumnar is the server's only ingest decoder, and its
// input is whatever a client sends. The drill decodes every proper prefix
// of one valid body with mixed types and mixed arities, then 100k seeded
// mutations of it: byte flips, and counts, arities and string lengths
// overwritten with random and extreme u32 values. Every decode must return
// OK or IoError and never abort. It must accept exactly the bodies that a
// reference reading the same bytes row by row with DeserializeRow accepts,
// and then hold the reference's rows byte for byte, in no more column
// cells than twice the body's bytes. scripts/torture.sh runs it under
// ASan+UBSan.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/schema.h"
#include "net/protocol.h"

namespace streamrel::net {
namespace {

struct ReferenceBody {
  std::string stream;
  int64_t system_time = 0;
  std::vector<Row> rows;
};

Status ReadFixed(const std::string& body, size_t* offset, void* out,
                 size_t n) {
  if (body.size() - *offset < n) return Status::IoError("truncated");
  std::memcpy(out, body.data() + *offset, n);
  *offset += n;
  return Status::OK();
}

// Reads an INGEST_BATCH body the plain way: stream name, system time, row
// count, then every row with DeserializeRow.
Result<ReferenceBody> ReferenceDecode(const std::string& body) {
  ReferenceBody out;
  size_t offset = 0;
  uint32_t len;
  RETURN_IF_ERROR(ReadFixed(body, &offset, &len, sizeof(len)));
  if (body.size() - offset < len) return Status::IoError("truncated");
  out.stream = body.substr(offset, len);
  offset += len;
  RETURN_IF_ERROR(
      ReadFixed(body, &offset, &out.system_time, sizeof(out.system_time)));
  uint32_t n_rows;
  RETURN_IF_ERROR(ReadFixed(body, &offset, &n_rows, sizeof(n_rows)));
  for (uint32_t r = 0; r < n_rows; ++r) {
    ASSIGN_OR_RETURN(Row row, DeserializeRow(body, &offset));
    out.rows.push_back(std::move(row));
  }
  return out;
}

std::string SerializeRows(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) SerializeRow(row, &out);
  return out;
}

// Decodes `body` with the decoder and with the reference and checks that
// they agree.
::testing::AssertionResult DecodesLikeReference(const std::string& body,
                                                bool* accepted = nullptr) {
  IngestColumnarRequest req;
  const Result<bool> got = DecodeIngestBodyColumnar(body, &req);
  const Result<ReferenceBody> want = ReferenceDecode(body);
  if (!got.ok() && got.status().code() != StatusCode::kIoError) {
    return ::testing::AssertionFailure()
           << "decoder failed with " << got.status().ToString();
  }
  if (got.ok() != want.ok()) {
    return ::testing::AssertionFailure()
           << "decoder " << (got.ok() ? "accepted" : "rejected")
           << " a body the reference "
           << (want.ok() ? "accepted" : "rejected: ")
           << (want.ok() ? "" : want.status().ToString());
  }
  if (accepted != nullptr) *accepted = got.ok();
  if (!got.ok()) return ::testing::AssertionSuccess();
  const exec::ColumnBatch& batch = req.batch;
  if (req.stream != want->stream || req.system_time != want->system_time) {
    return ::testing::AssertionFailure() << "header differs";
  }
  if (*got != !want->rows.empty()) {
    return ::testing::AssertionFailure() << "wrong non-empty flag";
  }
  if (batch.num_columns() * batch.row_count() > 2 * body.size()) {
    return ::testing::AssertionFailure()
           << batch.row_count() << " rows of " << batch.num_columns()
           << " columns from a " << body.size() << "-byte body";
  }
  if (SerializeRows(batch.MaterializeAll()) != SerializeRows(want->rows)) {
    return ::testing::AssertionFailure() << "rows differ";
  }
  return ::testing::AssertionSuccess();
}

// One valid body plus the offset of every u32 that counts something: the
// stream name's length, the row count, each row's arity and each string
// cell's length.
struct DrillBody {
  std::string bytes;
  std::vector<size_t> counts;
};

DrillBody MakeDrillBody() {
  IngestBatchRequest req;
  req.stream = "clicks";
  req.system_time = 42 * 1'000'000;
  req.rows = {
      {Value::Int64(1), Value::Double(2.5), Value::String("alpha"),
       Value::Timestamp(10)},
      {Value::Null(), Value::Bool(true), Value::String(""),
       Value::Interval(-5)},
      {Value::String("short")},
      {Value::Int64(-7), Value::Double(-0.0), Value::String("beta"),
       Value::Timestamp(20)},
      {Value::Int64(3), Value::Null(), Value::String("x"), Value::Null(),
       Value::String("long")},
      {},
      {Value::Int64(INT64_MIN), Value::Double(1e308),
       Value::String(std::string(40, 'z')), Value::Timestamp(30)},
  };
  DrillBody body;
  body.bytes = EncodeIngestBody(req);
  size_t offset = 0;
  body.counts.push_back(offset);  // stream name length
  offset += sizeof(uint32_t) + req.stream.size() + sizeof(int64_t);
  body.counts.push_back(offset);  // row count
  offset += sizeof(uint32_t);
  for (const Row& row : req.rows) {
    body.counts.push_back(offset);  // arity
    offset += sizeof(uint32_t);
    for (const Value& v : row) {
      if (v.type() == DataType::kString) body.counts.push_back(offset + 1);
      std::string cell;
      v.Serialize(&cell);
      offset += cell.size();
    }
  }
  EXPECT_EQ(offset, body.bytes.size());
  return body;
}

TEST(IngestDecoderDrill, ValidBodyAndEveryProperPrefix) {
  const DrillBody base = MakeDrillBody();
  bool accepted = false;
  ASSERT_TRUE(DecodesLikeReference(base.bytes, &accepted));
  ASSERT_TRUE(accepted);
  for (size_t cut = 0; cut < base.bytes.size(); ++cut) {
    const std::string prefix = base.bytes.substr(0, cut);
    ASSERT_TRUE(DecodesLikeReference(prefix, &accepted)) << "prefix " << cut;
    EXPECT_FALSE(accepted) << "prefix " << cut;
  }
}

TEST(IngestDecoderDrill, SeededMutationsDecodeLikeTheRowReader) {
  const DrillBody base = MakeDrillBody();
  const uint32_t kExtremes[] = {0,           1,           2,
                                0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFEu,
                                0xFFFFFFFFu};
  std::mt19937_64 rng(0x5eed16);
  int accepted_count = 0;
  constexpr int kMutations = 100'000;
  for (int i = 0; i < kMutations; ++i) {
    std::string body = base.bytes;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits; ++e) {
      if (rng() % 2 == 0) {
        body[rng() % body.size()] ^= static_cast<char>(1 + rng() % 255);
        continue;
      }
      const size_t at = base.counts[rng() % base.counts.size()];
      uint32_t v;
      std::memcpy(&v, body.data() + at, sizeof(v));
      switch (rng() % 3) {
        case 0:
          v = kExtremes[rng() % (sizeof(kExtremes) / sizeof(kExtremes[0]))];
          break;
        case 1:
          v = static_cast<uint32_t>(rng());
          break;
        default:
          v += static_cast<uint32_t>(rng() % 7) - 3;  // off by a few
          break;
      }
      std::memcpy(body.data() + at, &v, sizeof(v));
    }
    bool accepted = false;
    ASSERT_TRUE(DecodesLikeReference(body, &accepted)) << "mutation " << i;
    accepted_count += accepted;
  }
  // Both outcomes must be exercised for the agreement to mean anything.
  EXPECT_GT(accepted_count, kMutations / 100);
  EXPECT_LT(accepted_count, kMutations - kMutations / 100);
}

// Torn rows pad every column of the batch, so a wide row 0 followed by
// many empty rows would cost far more column cells than the body has
// bytes if the decoder kept row 0's width.
TEST(IngestDecoderDrill, NarrowRowsAfterAWideRowStayLinear) {
  IngestBatchRequest req;
  req.stream = "s";
  const Row wide(256, Value::Null());
  req.rows.push_back(wide);
  for (int i = 0; i < 4096; ++i) req.rows.push_back(Row{});
  req.rows.push_back(wide);
  bool accepted = false;
  ASSERT_TRUE(DecodesLikeReference(EncodeIngestBody(req), &accepted));
  EXPECT_TRUE(accepted);
}

}  // namespace
}  // namespace streamrel::net
