#include "sql/parser.h"

#include <gtest/gtest.h>

#include "common/time.h"

namespace streamrel::sql {
namespace {

StatementPtr Parse(const std::string& text) {
  auto r = ParseSingleStatement(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  return r.ok() ? std::move(*r) : nullptr;
}

const SelectStmt& AsSelect(const StatementPtr& stmt) {
  return static_cast<const SelectStmt&>(*stmt);
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT a, b FROM t");
  ASSERT_NE(stmt, nullptr);
  const auto& sel = AsSelect(stmt);
  ASSERT_EQ(sel.select_list.size(), 2u);
  EXPECT_EQ(sel.select_list[0].expr->ToString(), "a");
  ASSERT_EQ(sel.from.size(), 1u);
  EXPECT_EQ(sel.from[0]->name, "t");
}

TEST(ParserTest, SelectStar) {
  auto stmt = Parse("SELECT * FROM t");
  EXPECT_EQ(AsSelect(stmt).select_list[0].expr->kind, ExprKind::kStar);
}

TEST(ParserTest, QualifiedStar) {
  auto stmt = Parse("SELECT t.* FROM t");
  const auto& e = *AsSelect(stmt).select_list[0].expr;
  EXPECT_EQ(e.kind, ExprKind::kStar);
  EXPECT_EQ(e.qualifier, "t");
}

TEST(ParserTest, AliasWithAndWithoutAs) {
  auto stmt = Parse("SELECT a AS x, b y FROM t");
  const auto& sel = AsSelect(stmt);
  EXPECT_EQ(sel.select_list[0].alias, "x");
  EXPECT_EQ(sel.select_list[1].alias, "y");
}

TEST(ParserTest, WhereGroupHavingOrderLimit) {
  auto stmt = Parse(
      "SELECT url, count(*) c FROM t WHERE hits > 3 GROUP BY url "
      "HAVING count(*) > 1 ORDER BY c DESC LIMIT 10 OFFSET 2");
  const auto& sel = AsSelect(stmt);
  ASSERT_NE(sel.where, nullptr);
  ASSERT_EQ(sel.group_by.size(), 1u);
  ASSERT_NE(sel.having, nullptr);
  ASSERT_EQ(sel.order_by.size(), 1u);
  EXPECT_FALSE(sel.order_by[0].ascending);
  EXPECT_EQ(sel.limit.value(), 10);
  EXPECT_EQ(sel.offset.value(), 2);
}

TEST(ParserTest, Distinct) {
  EXPECT_TRUE(AsSelect(Parse("SELECT DISTINCT a FROM t")).distinct);
  EXPECT_FALSE(AsSelect(Parse("SELECT ALL a FROM t")).distinct);
}

TEST(ParserTest, TimeWindowClause) {
  auto stmt = Parse(
      "SELECT url FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'>");
  const auto& ref = *AsSelect(stmt).from[0];
  ASSERT_TRUE(ref.window.has_value());
  EXPECT_FALSE(ref.window->is_slices);
  EXPECT_EQ(ref.window->unit, WindowUnit::kTime);
  EXPECT_EQ(ref.window->visible, 5 * kMicrosPerMinute);
  EXPECT_EQ(ref.window->advance, kMicrosPerMinute);
}

TEST(ParserTest, TumblingWindowDefaultsAdvance) {
  auto stmt = Parse("SELECT url FROM s <VISIBLE '1 hour'>");
  const auto& w = *AsSelect(stmt).from[0]->window;
  EXPECT_EQ(w.visible, w.advance);
}

TEST(ParserTest, RowWindowClause) {
  auto stmt = Parse("SELECT a FROM s <VISIBLE 100 ROWS ADVANCE 10 ROWS>");
  const auto& w = *AsSelect(stmt).from[0]->window;
  EXPECT_EQ(w.unit, WindowUnit::kRows);
  EXPECT_EQ(w.visible, 100);
  EXPECT_EQ(w.advance, 10);
}

TEST(ParserTest, SlicesWindowClause) {
  auto stmt = Parse("SELECT a FROM s <SLICES 1 WINDOWS>");
  const auto& w = *AsSelect(stmt).from[0]->window;
  EXPECT_TRUE(w.is_slices);
  EXPECT_EQ(w.slices_count, 1);
}

TEST(ParserTest, MixedWindowUnitsRejected) {
  EXPECT_FALSE(
      ParseSingleStatement("SELECT a FROM s <VISIBLE '5 minutes' ADVANCE 10 ROWS>")
          .ok());
}

TEST(ParserTest, WindowNotConfusedWithComparison) {
  // '<' followed by a non-window keyword parses as a comparison.
  auto stmt = Parse("SELECT a FROM t WHERE a < b");
  EXPECT_NE(AsSelect(stmt).where, nullptr);
}

TEST(ParserTest, JoinOn) {
  auto stmt = Parse("SELECT * FROM a JOIN b ON a.x = b.y");
  const auto& ref = *AsSelect(stmt).from[0];
  EXPECT_EQ(ref.kind, TableRefKind::kJoin);
  EXPECT_EQ(ref.join_type, JoinType::kInner);
  ASSERT_NE(ref.join_condition, nullptr);
}

TEST(ParserTest, LeftJoin) {
  auto stmt = Parse("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y");
  EXPECT_EQ(AsSelect(stmt).from[0]->join_type, JoinType::kLeft);
}

TEST(ParserTest, CrossJoin) {
  auto stmt = Parse("SELECT * FROM a CROSS JOIN b");
  EXPECT_EQ(AsSelect(stmt).from[0]->join_type, JoinType::kCross);
  EXPECT_EQ(AsSelect(stmt).from[0]->join_condition, nullptr);
}

TEST(ParserTest, CommaJoin) {
  auto stmt = Parse("SELECT * FROM a, b WHERE a.x = b.y");
  EXPECT_EQ(AsSelect(stmt).from.size(), 2u);
}

TEST(ParserTest, SubqueryInFromRequiresAlias) {
  EXPECT_TRUE(ParseSingleStatement("SELECT * FROM (SELECT 1) q").ok());
  EXPECT_FALSE(ParseSingleStatement("SELECT * FROM (SELECT 1)").ok());
}

TEST(ParserTest, Example5FromPaper) {
  // The paper's historical-comparison query (with the '-' the OCR lost).
  auto stmt = Parse(
      "select c.scnt, h.scnt, c.stime from "
      "(select sum(cnt) as scnt, cq_close(*) as stime "
      " from urls_now <slices 1 windows>) c, urls_archive h "
      "where c.stime - '1 week'::interval = h.stime");
  const auto& sel = AsSelect(stmt);
  EXPECT_EQ(sel.from.size(), 2u);
  EXPECT_EQ(sel.from[0]->kind, TableRefKind::kSubquery);
  EXPECT_EQ(sel.from[0]->alias, "c");
}

TEST(ParserTest, UnionAll) {
  auto stmt = Parse("SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3");
  EXPECT_EQ(AsSelect(stmt).union_all.size(), 2u);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = Parse("SELECT 1 + 2 * 3");
  EXPECT_EQ(AsSelect(stmt).select_list[0].expr->ToString(),
            "(1 + (2 * 3))");
}

TEST(ParserTest, AndOrPrecedence) {
  auto stmt = Parse("SELECT a OR b AND c");
  EXPECT_EQ(AsSelect(stmt).select_list[0].expr->ToString(),
            "(a OR (b AND c))");
}

TEST(ParserTest, NotPrecedence) {
  auto stmt = Parse("SELECT NOT a = b");
  // NOT binds looser than comparison: NOT (a = b).
  EXPECT_EQ(AsSelect(stmt).select_list[0].expr->ToString(), "NOT (a = b)");
}

TEST(ParserTest, IntervalLiteral) {
  auto expr = ParseExpression("interval '5 minutes'");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->literal.type(), DataType::kInterval);
  EXPECT_EQ((*expr)->literal.AsIntervalMicros(), 5 * kMicrosPerMinute);
}

TEST(ParserTest, TimestampLiteral) {
  auto expr = ParseExpression("timestamp '2009-01-05 09:00:00'");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->literal.type(), DataType::kTimestamp);
}

TEST(ParserTest, CastSyntaxes) {
  auto expr = ParseExpression("CAST(x AS bigint)");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, ExprKind::kCast);
  EXPECT_EQ((*expr)->cast_type, DataType::kInt64);

  auto pg = ParseExpression("'1 week'::interval");
  ASSERT_TRUE(pg.ok());
  EXPECT_EQ((*pg)->kind, ExprKind::kCast);
  EXPECT_EQ((*pg)->cast_type, DataType::kInterval);
}

TEST(ParserTest, CaseExpression) {
  auto expr = ParseExpression(
      "CASE WHEN a > 1 THEN 'big' WHEN a = 1 THEN 'one' ELSE 'small' END");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, ExprKind::kCase);
  EXPECT_TRUE((*expr)->case_has_else);
  EXPECT_EQ((*expr)->children.size(), 5u);
}

TEST(ParserTest, InBetweenLikeIsNull) {
  EXPECT_EQ((*ParseExpression("a IN (1, 2, 3)"))->kind, ExprKind::kIn);
  EXPECT_EQ((*ParseExpression("a NOT IN (1)"))->is_not, true);
  EXPECT_EQ((*ParseExpression("a BETWEEN 1 AND 2"))->kind,
            ExprKind::kBetween);
  EXPECT_EQ((*ParseExpression("a IS NULL"))->kind, ExprKind::kIsNull);
  EXPECT_EQ((*ParseExpression("a IS NOT NULL"))->is_not, true);
  auto like = ParseExpression("a LIKE '%x%'");
  ASSERT_TRUE(like.ok());
  EXPECT_EQ((*like)->binary_op, BinaryOp::kLike);
}

TEST(ParserTest, CountVariants) {
  auto star = ParseExpression("count(*)");
  ASSERT_TRUE(star.ok());
  EXPECT_EQ((*star)->children[0]->kind, ExprKind::kStar);
  auto distinct = ParseExpression("count(DISTINCT url)");
  ASSERT_TRUE(distinct.ok());
  EXPECT_TRUE((*distinct)->distinct);
}

TEST(ParserTest, CreateTable) {
  auto stmt = Parse(
      "CREATE TABLE urls_archive (url varchar(1024), scnt integer, "
      "stime timestamp)");
  const auto& ct = static_cast<const CreateTableStmt&>(*stmt);
  EXPECT_EQ(ct.name, "urls_archive");
  ASSERT_EQ(ct.columns.size(), 3u);
  EXPECT_EQ(ct.columns[0].type, DataType::kString);
  EXPECT_EQ(ct.columns[1].type, DataType::kInt64);
  EXPECT_EQ(ct.columns[2].type, DataType::kTimestamp);
}

TEST(ParserTest, CreateStreamExample1) {
  auto stmt = Parse(
      "CREATE STREAM url_stream (url varchar(1024), "
      "atime timestamp CQTIME USER, client_ip varchar(50))");
  const auto& cs = static_cast<const CreateStreamStmt&>(*stmt);
  EXPECT_EQ(cs.name, "url_stream");
  EXPECT_TRUE(cs.columns[1].is_cqtime);
  EXPECT_FALSE(cs.columns[1].cqtime_system);
}

TEST(ParserTest, CreateStreamCqtimeSystem) {
  auto stmt = Parse("CREATE STREAM s (ts timestamp CQTIME SYSTEM, v bigint)");
  const auto& cs = static_cast<const CreateStreamStmt&>(*stmt);
  EXPECT_TRUE(cs.columns[0].cqtime_system);
}

TEST(ParserTest, CqtimeOnTableRejected) {
  EXPECT_FALSE(
      ParseSingleStatement("CREATE TABLE t (ts timestamp CQTIME USER)").ok());
}

TEST(ParserTest, CreateDerivedStreamExample3) {
  auto stmt = Parse(
      "CREATE STREAM urls_now as SELECT url, count(*) as scnt, cq_close(*) "
      "FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> "
      "GROUP by url");
  EXPECT_EQ(stmt->kind(), StatementKind::kCreateDerivedStream);
  const auto& ds = static_cast<const CreateDerivedStreamStmt&>(*stmt);
  EXPECT_EQ(ds.name, "urls_now");
  EXPECT_EQ(ds.select->group_by.size(), 1u);
}

TEST(ParserTest, CreateChannelExample4) {
  auto stmt =
      Parse("CREATE CHANNEL urls_channel FROM urls_now INTO urls_archive "
            "APPEND");
  const auto& ch = static_cast<const CreateChannelStmt&>(*stmt);
  EXPECT_EQ(ch.name, "urls_channel");
  EXPECT_EQ(ch.from_stream, "urls_now");
  EXPECT_EQ(ch.into_table, "urls_archive");
  EXPECT_EQ(ch.mode, ChannelMode::kAppend);
}

TEST(ParserTest, CreateChannelReplace) {
  auto stmt = Parse("CREATE CHANNEL c FROM s INTO t REPLACE");
  EXPECT_EQ(static_cast<const CreateChannelStmt&>(*stmt).mode,
            ChannelMode::kReplace);
}

TEST(ParserTest, CreateViewAndIndex) {
  EXPECT_EQ(Parse("CREATE VIEW v AS SELECT a FROM t")->kind(),
            StatementKind::kCreateView);
  auto idx = Parse("CREATE INDEX i ON t (c)");
  const auto& ci = static_cast<const CreateIndexStmt&>(*idx);
  EXPECT_EQ(ci.table, "t");
  EXPECT_EQ(ci.column, "c");
}

TEST(ParserTest, InsertValues) {
  auto stmt = Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  const auto& ins = static_cast<const InsertStmt&>(*stmt);
  EXPECT_EQ(ins.table, "t");
  EXPECT_EQ(ins.columns.size(), 2u);
  EXPECT_EQ(ins.rows.size(), 2u);
}

TEST(ParserTest, DropVariants) {
  EXPECT_EQ(static_cast<const DropStmt&>(*Parse("DROP TABLE t")).object_kind,
            ObjectKind::kTable);
  EXPECT_EQ(
      static_cast<const DropStmt&>(*Parse("DROP STREAM s")).object_kind,
      ObjectKind::kStream);
  StatementPtr drop_view = Parse("DROP VIEW IF EXISTS v");
  EXPECT_TRUE(static_cast<const DropStmt&>(*drop_view).if_exists);
}

TEST(ParserTest, SetOverloadForms) {
  {
    StatementPtr stmt = Parse("SET MEMORY LIMIT 1048576");
    const auto& set = static_cast<const SetStmt&>(*stmt);
    EXPECT_EQ(set.option, "memory_limit");
    EXPECT_EQ(set.value, 1048576);
  }
  {
    StatementPtr stmt = Parse("SET OVERLOAD POLICY trades SHED_OLDEST");
    const auto& set = static_cast<const SetStmt&>(*stmt);
    EXPECT_EQ(set.option, "overload_policy");
    EXPECT_EQ(set.target, "trades");
    EXPECT_EQ(set.text_value, "SHED_OLDEST");
  }
  {
    // Policy keyword is case-insensitive; stream names may be dotted.
    StatementPtr stmt = Parse("SET OVERLOAD POLICY trades.__quarantine block");
    const auto& set = static_cast<const SetStmt&>(*stmt);
    EXPECT_EQ(set.target, "trades.__quarantine");
    EXPECT_EQ(set.text_value, "BLOCK");
  }
  {
    StatementPtr stmt = Parse("SET RETRY LIMIT 5");
    const auto& set = static_cast<const SetStmt&>(*stmt);
    EXPECT_EQ(set.option, "retry_limit");
    EXPECT_EQ(set.value, 5);
  }
  {
    StatementPtr stmt = Parse("SET RETRY BACKOFF 2000");
    const auto& set = static_cast<const SetStmt&>(*stmt);
    EXPECT_EQ(set.option, "retry_backoff");
    EXPECT_EQ(set.value, 2000);
  }
  EXPECT_FALSE(ParseSingleStatement("SET MEMORY LIMIT big").ok());
  EXPECT_FALSE(ParseSingleStatement("SET OVERLOAD POLICY s DROP_ALL").ok());
  EXPECT_FALSE(ParseSingleStatement("SET RETRY SPEED 9").ok());
  EXPECT_FALSE(ParseSingleStatement("SET PARALLELISM 2").ok());
  EXPECT_FALSE(ParseSingleStatement("SET VECTORIZE ON").ok());
}

TEST(ParserTest, DottedObjectNames) {
  {
    auto stmt = Parse("SELECT reason FROM trades.__quarantine");
    EXPECT_EQ(AsSelect(stmt).from[0]->name, "trades.__quarantine");
  }
  {
    auto stmt = Parse("CREATE CHANNEL q FROM trades.__quarantine INTO t");
    const auto& ch = static_cast<const CreateChannelStmt&>(*stmt);
    EXPECT_EQ(ch.from_stream, "trades.__quarantine");
  }
  {
    auto stmt = Parse("DROP STREAM trades.__quarantine");
    const auto& drop = static_cast<const DropStmt&>(*stmt);
    EXPECT_EQ(drop.name, "trades.__quarantine");
  }
  {
    auto stmt = Parse("SHOW STATS FOR STREAM trades.__quarantine");
    const auto& show = static_cast<const ShowStatsStmt&>(*stmt);
    EXPECT_EQ(show.name, "trades.__quarantine");
  }
}

TEST(ParserTest, ShowStatsForOverload) {
  auto stmt = Parse("SHOW STATS FOR OVERLOAD");
  const auto& show = static_cast<const ShowStatsStmt&>(*stmt);
  EXPECT_EQ(show.target, ShowStatsStmt::Target::kOverload);
  EXPECT_TRUE(show.name.empty());
}

TEST(ParserTest, MultipleStatements) {
  auto r = ParseSql("SELECT 1; SELECT 2;");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(ParserTest, ErrorsHavePosition) {
  auto r = ParseSingleStatement("SELECT FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, CloneRoundTrips) {
  auto stmt = Parse(
      "SELECT a, count(*) c FROM t <VISIBLE '1 minute'> WHERE a > 0 "
      "GROUP BY a ORDER BY c DESC LIMIT 5");
  auto clone = AsSelect(stmt).CloneSelect();
  EXPECT_EQ(clone->select_list.size(), 2u);
  EXPECT_EQ(clone->select_list[1].expr->ToString(), "count(*)");
  EXPECT_TRUE(clone->from[0]->window.has_value());
  EXPECT_EQ(clone->limit.value(), 5);
}

}  // namespace
}  // namespace streamrel::sql
