#include "db/expression.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace digest {
namespace {

Schema TestSchema() {
  return Schema::Create({"cpu", "memory", "storage", "bandwidth"}).value();
}

double Eval(const std::string& text, const Tuple& tuple) {
  Result<Expression> expr = Expression::Parse(text);
  EXPECT_TRUE(expr.ok()) << expr.status();
  Schema schema = TestSchema();
  EXPECT_TRUE(expr->Bind(schema).ok());
  Result<double> v = expr->Evaluate(tuple);
  EXPECT_TRUE(v.ok()) << v.status();
  return v.value_or(-1e308);
}

TEST(ExpressionTest, Constants) {
  EXPECT_DOUBLE_EQ(Eval("42", {0, 0, 0, 0}), 42.0);
  EXPECT_DOUBLE_EQ(Eval("3.5", {0, 0, 0, 0}), 3.5);
  EXPECT_DOUBLE_EQ(Eval("1e3", {0, 0, 0, 0}), 1000.0);
  EXPECT_DOUBLE_EQ(Eval("2.5e-2", {0, 0, 0, 0}), 0.025);
}

TEST(ExpressionTest, Attributes) {
  EXPECT_DOUBLE_EQ(Eval("cpu", {7, 0, 0, 0}), 7.0);
  EXPECT_DOUBLE_EQ(Eval("bandwidth", {0, 0, 0, 9}), 9.0);
}

TEST(ExpressionTest, PaperExampleMemoryPlusStorage) {
  // The running example of §II: SUM(memory + storage).
  EXPECT_DOUBLE_EQ(Eval("memory + storage", {0, 4, 6, 0}), 10.0);
}

TEST(ExpressionTest, Precedence) {
  EXPECT_DOUBLE_EQ(Eval("2 + 3 * 4", {0, 0, 0, 0}), 14.0);
  EXPECT_DOUBLE_EQ(Eval("(2 + 3) * 4", {0, 0, 0, 0}), 20.0);
  EXPECT_DOUBLE_EQ(Eval("2 * cpu + memory", {3, 5, 0, 0}), 11.0);
  EXPECT_DOUBLE_EQ(Eval("10 - 4 - 3", {0, 0, 0, 0}), 3.0);  // Left assoc.
  EXPECT_DOUBLE_EQ(Eval("16 / 4 / 2", {0, 0, 0, 0}), 2.0);
}

TEST(ExpressionTest, UnaryMinus) {
  EXPECT_DOUBLE_EQ(Eval("-cpu", {5, 0, 0, 0}), -5.0);
  EXPECT_DOUBLE_EQ(Eval("--cpu", {5, 0, 0, 0}), 5.0);
  EXPECT_DOUBLE_EQ(Eval("3 * -2", {0, 0, 0, 0}), -6.0);
  EXPECT_DOUBLE_EQ(Eval("-(cpu + memory)", {1, 2, 0, 0}), -3.0);
}

TEST(ExpressionTest, WhitespaceInsensitive) {
  EXPECT_DOUBLE_EQ(Eval("  memory+storage ", {0, 1, 2, 0}), 3.0);
  EXPECT_DOUBLE_EQ(Eval("\tmemory\n+\nstorage\t", {0, 1, 2, 0}), 3.0);
}

TEST(ExpressionTest, ParseErrors) {
  EXPECT_FALSE(Expression::Parse("").ok());
  EXPECT_FALSE(Expression::Parse("1 +").ok());
  EXPECT_FALSE(Expression::Parse("(1 + 2").ok());
  EXPECT_FALSE(Expression::Parse("1 2").ok());
  EXPECT_FALSE(Expression::Parse("a $ b").ok());
  EXPECT_FALSE(Expression::Parse("* 3").ok());
  EXPECT_EQ(Expression::Parse("+").status().code(), StatusCode::kParseError);
}

TEST(ExpressionTest, AttributesAreCollectedOnce) {
  Result<Expression> expr = Expression::Parse("cpu + memory * cpu");
  ASSERT_TRUE(expr.ok());
  ASSERT_EQ(expr->attributes().size(), 2u);
  EXPECT_EQ(expr->attributes()[0], "cpu");
  EXPECT_EQ(expr->attributes()[1], "memory");
}

TEST(ExpressionTest, BindFailsOnUnknownAttribute) {
  Result<Expression> expr = Expression::Parse("nonexistent + 1");
  ASSERT_TRUE(expr.ok());
  Schema schema = TestSchema();
  EXPECT_EQ(expr->Bind(schema).code(), StatusCode::kNotFound);

  // Re-binding a bound expression to a schema that lacks one of its
  // attributes fails and leaves it unbound: Evaluate must not read the
  // columns of the earlier schema.
  const Schema ab = Schema::Create({"a", "b"}).value();
  const Schema a_only = Schema::Create({"a"}).value();
  for (const char* text : {"b + 0", "b"}) {
    Result<Expression> rebound = Expression::Parse(text);
    ASSERT_TRUE(rebound.ok());
    ASSERT_TRUE(rebound->Bind(ab).ok());
    EXPECT_EQ(rebound->Evaluate({10.0, 20.0}).value(), 20.0) << text;
    EXPECT_EQ(rebound->Bind(a_only).code(), StatusCode::kNotFound) << text;
    EXPECT_FALSE(rebound->bound()) << text;
    EXPECT_EQ(rebound->Evaluate({10.0, 20.0}).status().code(),
              StatusCode::kFailedPrecondition)
        << text;
  }
}

TEST(ExpressionTest, EvaluateWithoutBindFails) {
  for (const char* text : {"cpu", "(cpu)", "cpu + 1"}) {
    Result<Expression> expr = Expression::Parse(text);
    ASSERT_TRUE(expr.ok());
    EXPECT_EQ(expr->Evaluate({1.0}).status().code(),
              StatusCode::kFailedPrecondition)
        << text;
  }
}

TEST(ExpressionTest, ConstantExpressionNeedsNoBind) {
  Result<Expression> expr = Expression::Parse("2 * 21");
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE(expr->bound());
  Result<double> v = expr->Evaluate({});
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 42.0);
}

TEST(ExpressionTest, DivisionByZeroFails) {
  Result<Expression> expr = Expression::Parse("1 / cpu");
  ASSERT_TRUE(expr.ok());
  Schema schema = TestSchema();
  ASSERT_TRUE(expr->Bind(schema).ok());
  EXPECT_EQ(expr->Evaluate({0.0, 0, 0, 0}).status().code(),
            StatusCode::kNumericError);
  Result<double> ok = expr->Evaluate({2.0, 0, 0, 0});
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(*ok, 0.5);
}

TEST(ExpressionTest, NarrowTupleFails) {
  // A bound bare attribute reads its column directly, and still fails
  // like the tree walk when the tuple is narrower than the schema.
  for (const char* text : {"bandwidth", "(bandwidth)", "bandwidth * 2"}) {
    Result<Expression> expr = Expression::Parse(text);
    ASSERT_TRUE(expr.ok());
    Schema schema = TestSchema();
    ASSERT_TRUE(expr->Bind(schema).ok());
    EXPECT_EQ(expr->Evaluate({1.0, 2.0}).status().code(),
              StatusCode::kOutOfRange)
        << text;
    EXPECT_EQ(expr->Evaluate({}).status().code(), StatusCode::kOutOfRange)
        << text;
  }
}

TEST(ExpressionTest, BareAttributeReadsItsColumnBitForBit) {
  // `temperature` and `(temperature)` parse to the same bare attribute;
  // both return the stored double unchanged, NaN and infinities
  // included, where arithmetic over them would fail as non-finite.
  Schema schema = Schema::Create({"station", "temperature"}).value();
  Result<Expression> bare = Expression::Parse("temperature");
  Result<Expression> paren = Expression::Parse("(temperature)");
  ASSERT_TRUE(bare.ok());
  ASSERT_TRUE(paren.ok());
  ASSERT_TRUE(bare->Bind(schema).ok());
  ASSERT_TRUE(paren->Bind(schema).ok());
  EXPECT_EQ(bare->ToString(), paren->ToString());
  for (double v : {0.0, -0.0, 71.25, -1e300, std::nan(""), HUGE_VAL}) {
    const Tuple tuple = {3.0, v};
    Result<double> a = bare->Evaluate(tuple);
    Result<double> b = paren->Evaluate(tuple);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(*a), std::bit_cast<uint64_t>(v));
    EXPECT_EQ(std::bit_cast<uint64_t>(*b), std::bit_cast<uint64_t>(v));
  }
  // Rebinding to a schema with the column elsewhere moves the read.
  Schema swapped = Schema::Create({"temperature", "station"}).value();
  ASSERT_TRUE(bare->Bind(swapped).ok());
  EXPECT_EQ(bare->Evaluate({5.0, 9.0}).value(), 5.0);
}

TEST(ExpressionTest, FactoryHelpers) {
  Expression attr = Expression::Attribute("memory");
  Schema schema = TestSchema();
  ASSERT_TRUE(attr.Bind(schema).ok());
  Result<double> v = attr.Evaluate({0, 8, 0, 0});
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 8.0);

  Expression c = Expression::Constant(2.5);
  Result<double> cv = c.Evaluate({});
  ASSERT_TRUE(cv.ok());
  EXPECT_DOUBLE_EQ(*cv, 2.5);
}

TEST(ExpressionTest, ToStringRoundTripsSemantics) {
  Result<Expression> expr = Expression::Parse("2*(cpu + -3)/memory");
  ASSERT_TRUE(expr.ok());
  Result<Expression> reparsed = Expression::Parse(expr->ToString());
  ASSERT_TRUE(reparsed.ok()) << expr->ToString();
  Schema schema = TestSchema();
  ASSERT_TRUE(expr->Bind(schema).ok());
  ASSERT_TRUE(reparsed->Bind(schema).ok());
  const Tuple t = {5, 4, 0, 0};
  EXPECT_DOUBLE_EQ(expr->Evaluate(t).value(), reparsed->Evaluate(t).value());
}

TEST(ExpressionTest, CopyIsIndependent) {
  Result<Expression> expr = Expression::Parse("cpu + 1");
  ASSERT_TRUE(expr.ok());
  Expression copy = *expr;
  Schema schema = TestSchema();
  ASSERT_TRUE(copy.Bind(schema).ok());
  EXPECT_TRUE(copy.bound());
  EXPECT_FALSE(expr->bound());  // Original unaffected.
}

}  // namespace
}  // namespace digest
