#include "db/predicate.h"

#include <gtest/gtest.h>

#include "db/query.h"

namespace digest {
namespace {

Schema TestSchema() {
  return Schema::Create({"cpu", "memory", "storage", "bandwidth"}).value();
}

bool Eval(const std::string& text, const Tuple& tuple) {
  Result<Predicate> pred = Predicate::Parse(text);
  EXPECT_TRUE(pred.ok()) << text << ": " << pred.status();
  if (!pred.ok()) return false;
  Schema schema = TestSchema();
  EXPECT_TRUE(pred->Bind(schema).ok());
  Result<bool> v = pred->Evaluate(tuple);
  EXPECT_TRUE(v.ok()) << v.status();
  return v.value_or(false);
}

TEST(PredicateTest, TrivialPredicateIsAlwaysTrue) {
  Predicate p;
  EXPECT_TRUE(p.IsTrivial());
  EXPECT_TRUE(p.bound());
  EXPECT_TRUE(p.Evaluate({1.0}).value());
  EXPECT_EQ(p.ToString(), "TRUE");
}

TEST(PredicateTest, Comparisons) {
  const Tuple t = {4.0, 8.0, 16.0, 2.0};  // cpu memory storage bandwidth
  EXPECT_TRUE(Eval("cpu < memory", t));
  EXPECT_FALSE(Eval("cpu > memory", t));
  EXPECT_TRUE(Eval("cpu <= 4", t));
  EXPECT_TRUE(Eval("cpu >= 4", t));
  EXPECT_FALSE(Eval("cpu < 4", t));
  EXPECT_TRUE(Eval("cpu = 4", t));
  EXPECT_TRUE(Eval("cpu == 4", t));
  EXPECT_TRUE(Eval("cpu != 5", t));
  EXPECT_TRUE(Eval("cpu <> 5", t));
  EXPECT_FALSE(Eval("cpu != 4", t));
}

TEST(PredicateTest, ArithmeticInComparisons) {
  const Tuple t = {4.0, 8.0, 16.0, 2.0};
  EXPECT_TRUE(Eval("memory + storage > 20", t));
  EXPECT_TRUE(Eval("2 * cpu = memory", t));
  EXPECT_TRUE(Eval("(memory + storage) / 2 >= 12", t));
  EXPECT_TRUE(Eval("-cpu < 0", t));
}

TEST(PredicateTest, BooleanConnectives) {
  const Tuple t = {4.0, 8.0, 16.0, 2.0};
  EXPECT_TRUE(Eval("cpu > 1 AND memory > 1", t));
  EXPECT_FALSE(Eval("cpu > 1 AND memory > 100", t));
  EXPECT_TRUE(Eval("cpu > 100 OR memory > 1", t));
  EXPECT_FALSE(Eval("cpu > 100 OR memory > 100", t));
  EXPECT_TRUE(Eval("NOT cpu > 100", t));
  EXPECT_FALSE(Eval("NOT cpu > 1", t));
  // Precedence: AND binds tighter than OR.
  EXPECT_TRUE(Eval("cpu > 100 AND memory > 1 OR storage > 1", t));
  EXPECT_FALSE(Eval("cpu > 100 AND (memory > 1 OR storage > 1)", t));
}

TEST(PredicateTest, KeywordsAreCaseInsensitive) {
  const Tuple t = {4.0, 8.0, 16.0, 2.0};
  EXPECT_TRUE(Eval("cpu > 1 and memory > 1", t));
  EXPECT_TRUE(Eval("not cpu > 100 Or memory > 100", t));
}

TEST(PredicateTest, ParenthesizedBooleanVsArithmetic) {
  const Tuple t = {4.0, 8.0, 16.0, 2.0};
  // '(a) > 1' — parenthesized arithmetic on the left of a comparison.
  EXPECT_TRUE(Eval("(cpu) > 1", t));
  EXPECT_TRUE(Eval("(cpu + memory) > 10", t));
  // '(a > 1)' — parenthesized boolean.
  EXPECT_TRUE(Eval("(cpu > 1)", t));
  EXPECT_TRUE(Eval("(cpu > 1 AND memory > 1) OR bandwidth > 100", t));
}

TEST(PredicateTest, IdentifiersContainingKeywordLetters) {
  // Attribute names that merely *start* with AND/OR/NOT must not be
  // mistaken for keywords.
  Result<Predicate> pred = Predicate::Parse("android > 1");
  ASSERT_TRUE(pred.ok());
  ASSERT_EQ(pred->attributes().size(), 1u);
  EXPECT_EQ(pred->attributes()[0], "android");
}

TEST(PredicateTest, ParseErrors) {
  EXPECT_FALSE(Predicate::Parse("").ok());
  EXPECT_FALSE(Predicate::Parse("cpu").ok());        // No comparison.
  EXPECT_FALSE(Predicate::Parse("cpu >").ok());
  EXPECT_FALSE(Predicate::Parse("cpu > 1 AND").ok());
  EXPECT_FALSE(Predicate::Parse("(cpu > 1").ok());
  EXPECT_FALSE(Predicate::Parse("cpu > 1 extra").ok());
  EXPECT_FALSE(Predicate::Parse("> 1").ok());
}

TEST(PredicateTest, BindFailsOnUnknownAttribute) {
  Result<Predicate> pred = Predicate::Parse("ghost > 1");
  ASSERT_TRUE(pred.ok());
  Schema schema = TestSchema();
  EXPECT_EQ(pred->Bind(schema).code(), StatusCode::kNotFound);

  // Re-binding a bound predicate to a schema that lacks one of its
  // attributes fails and leaves it unbound: Evaluate must not compare
  // the columns of the earlier schema.
  Result<Predicate> rebound = Predicate::Parse("b > 15");
  ASSERT_TRUE(rebound.ok());
  ASSERT_TRUE(rebound->Bind(Schema::Create({"a", "b"}).value()).ok());
  EXPECT_TRUE(rebound->Evaluate({10.0, 20.0}).value());
  EXPECT_EQ(rebound->Bind(Schema::Create({"a"}).value()).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(rebound->bound());
  EXPECT_EQ(rebound->Evaluate({10.0, 20.0}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PredicateTest, EvaluateWithoutBindFails) {
  Result<Predicate> pred = Predicate::Parse("cpu > 1");
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->Evaluate({1.0}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PredicateTest, ArithmeticErrorsPropagate) {
  Result<Predicate> pred = Predicate::Parse("1 / cpu > 0");
  ASSERT_TRUE(pred.ok());
  Schema schema = TestSchema();
  ASSERT_TRUE(pred->Bind(schema).ok());
  EXPECT_EQ(pred->Evaluate({0.0, 0, 0, 0}).status().code(),
            StatusCode::kNumericError);
}

TEST(PredicateTest, ToStringRoundTripsSemantics) {
  Result<Predicate> pred =
      Predicate::Parse("NOT (cpu > 1 AND memory <= 3) OR storage != 2");
  ASSERT_TRUE(pred.ok());
  Result<Predicate> reparsed = Predicate::Parse(pred->ToString());
  ASSERT_TRUE(reparsed.ok()) << pred->ToString();
  Schema schema = TestSchema();
  ASSERT_TRUE(pred->Bind(schema).ok());
  ASSERT_TRUE(reparsed->Bind(schema).ok());
  for (double cpu : {0.0, 2.0}) {
    for (double mem : {1.0, 5.0}) {
      for (double sto : {2.0, 7.0}) {
        const Tuple t = {cpu, mem, sto, 0.0};
        EXPECT_EQ(pred->Evaluate(t).value(), reparsed->Evaluate(t).value());
      }
    }
  }
}

TEST(QueryWhereTest, ParsesWhereClause) {
  Result<AggregateQuery> q = AggregateQuery::Parse(
      "SELECT AVG(memory) FROM R WHERE cpu > 2 AND memory < 100");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_FALSE(q->where.IsTrivial());
  EXPECT_EQ(q->where.attributes().size(), 2u);
}

TEST(QueryWhereTest, NoWhereIsTrivial) {
  Result<AggregateQuery> q =
      AggregateQuery::Parse("SELECT AVG(memory) FROM R");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->where.IsTrivial());
}

TEST(QueryWhereTest, WhereWithSemicolon) {
  Result<AggregateQuery> q =
      AggregateQuery::Parse("SELECT SUM(cpu) FROM R WHERE cpu >= 1;");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_FALSE(q->where.IsTrivial());
}

TEST(QueryWhereTest, EmptyWhereFails) {
  EXPECT_FALSE(AggregateQuery::Parse("SELECT AVG(a) FROM R WHERE").ok());
  EXPECT_FALSE(AggregateQuery::Parse("SELECT AVG(a) FROM R WHERE ;").ok());
}

TEST(QueryWhereTest, ToStringIncludesWhere) {
  Result<AggregateQuery> q = AggregateQuery::Parse(
      "select count(*) from R where bandwidth >= 10");
  ASSERT_TRUE(q.ok());
  const std::string text = q->ToString();
  EXPECT_NE(text.find("WHERE"), std::string::npos);
  Result<AggregateQuery> reparsed = AggregateQuery::Parse(text);
  ASSERT_TRUE(reparsed.ok()) << text;
}

}  // namespace
}  // namespace digest
