#include "db/p2p_database.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>

namespace digest {
namespace {

// A copy would alias the source's stores through the lookup table.
static_assert(!std::is_copy_constructible_v<P2PDatabase>);
static_assert(!std::is_copy_assignable_v<P2PDatabase>);
static_assert(std::is_move_constructible_v<P2PDatabase>);

P2PDatabase MakeDb() {
  return P2PDatabase(Schema::Create({"x", "y"}).value());
}

TEST(P2PDatabaseTest, NodeLifecycle) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  EXPECT_TRUE(db.HasNode(0));
  EXPECT_EQ(db.AddNode(0).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(db.RemoveNode(0).ok());
  EXPECT_FALSE(db.HasNode(0));
  EXPECT_EQ(db.RemoveNode(0).code(), StatusCode::kNotFound);
}

TEST(P2PDatabaseTest, ContentSizeAndTotals) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  ASSERT_TRUE(db.AddNode(1).ok());
  db.StoreAt(0).value()->Insert({1.0, 2.0});
  db.StoreAt(0).value()->Insert({3.0, 4.0});
  db.StoreAt(1).value()->Insert({5.0, 6.0});
  EXPECT_EQ(db.ContentSize(0), 2u);
  EXPECT_EQ(db.ContentSize(1), 1u);
  EXPECT_EQ(db.ContentSize(99), 0u);
  EXPECT_EQ(db.TotalTuples(), 3u);
  EXPECT_EQ(db.Nodes().size(), 2u);
}

// Every store lookup agrees on which ids have a store: ids past the
// table, removed ids, re-added ids, and the same after moving the
// database (the table points into map nodes, which a move keeps).
TEST(P2PDatabaseTest, StoreLookupsAgreeOnEveryId) {
  P2PDatabase db = MakeDb();
  for (NodeId node : {0u, 1u, 2u, 5u}) ASSERT_TRUE(db.AddNode(node).ok());
  db.StoreAt(2).value()->Insert({1.0, 2.0});
  db.StoreAt(5).value()->Insert({3.0, 4.0});
  db.StoreAt(5).value()->Insert({5.0, 6.0});
  ASSERT_TRUE(db.RemoveNode(1).ok());
  ASSERT_TRUE(db.RemoveNode(2).ok());
  ASSERT_TRUE(db.AddNode(2).ok());  // Re-added: a fresh, empty store.
  db.StoreAt(2).value()->Insert({7.0, 8.0});

  struct Case {
    NodeId node;
    bool present;
    size_t size;
  };
  const Case cases[] = {
      {0, true, 0},  {1, false, 0}, {2, true, 1},
      {3, false, 0}, {5, true, 2},  {6, false, 0},
      {1000, false, 0}, {kInvalidNode, false, 0},
  };
  const auto check = [&](const P2PDatabase& d, const char* when) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(when) + " node " + std::to_string(c.node));
      EXPECT_EQ(d.HasNode(c.node), c.present);
      EXPECT_EQ(d.FindStore(c.node) != nullptr, c.present);
      EXPECT_EQ(d.ContentSize(c.node), c.size);
      Result<const LocalStore*> store = d.StoreAt(c.node);
      ASSERT_EQ(store.ok(), c.present);
      if (c.present) {
        EXPECT_EQ(*store, d.FindStore(c.node));
        EXPECT_EQ((*store)->Size(), c.size);
      } else {
        EXPECT_EQ(store.status().code(), StatusCode::kNotFound);
      }
    }
    EXPECT_EQ(d.Nodes().size(), 3u);
    EXPECT_EQ(d.TotalTuples(), 3u);
  };
  check(db, "before move:");
  const LocalStore* store5 = db.FindStore(5);
  P2PDatabase moved = std::move(db);
  check(moved, "after move:");
  EXPECT_EQ(moved.FindStore(5), store5);
  P2PDatabase assigned = MakeDb();
  ASSERT_TRUE(assigned.AddNode(7).ok());
  assigned = std::move(moved);
  check(assigned, "after move-assignment:");
  EXPECT_FALSE(assigned.HasNode(7));
  // Mutable access resolves through the same table.
  Result<LocalStore*> mutable_store = assigned.StoreAt(5);
  ASSERT_TRUE(mutable_store.ok());
  EXPECT_EQ(*mutable_store, store5);
  EXPECT_EQ(assigned.StoreAt(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(assigned.RemoveNode(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(assigned.RemoveNode(1000).code(), StatusCode::kNotFound);
}

TEST(P2PDatabaseTest, StoreAtMissingNodeFails) {
  P2PDatabase db = MakeDb();
  EXPECT_EQ(db.StoreAt(3).status().code(), StatusCode::kNotFound);
}

TEST(P2PDatabaseTest, GetTupleDistinguishesFailureModes) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  const LocalTupleId id = db.StoreAt(0).value()->Insert({1.0, 2.0});
  Result<Tuple> ok = db.GetTuple(TupleRef{0, id});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, (Tuple{1.0, 2.0}));
  // Deleted tuple -> NotFound.
  ASSERT_TRUE(db.StoreAt(0).value()->Erase(id).ok());
  EXPECT_EQ(db.GetTuple(TupleRef{0, id}).status().code(),
            StatusCode::kNotFound);
  // Departed node -> Unavailable.
  EXPECT_EQ(db.GetTuple(TupleRef{9, 0}).status().code(),
            StatusCode::kUnavailable);
}

TEST(P2PDatabaseTest, ExactAvg) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  ASSERT_TRUE(db.AddNode(1).ok());
  db.StoreAt(0).value()->Insert({1.0, 10.0});
  db.StoreAt(0).value()->Insert({2.0, 20.0});
  db.StoreAt(1).value()->Insert({3.0, 30.0});
  AggregateQuery q = AggregateQuery::Parse("SELECT AVG(x) FROM R").value();
  Result<double> avg = db.ExactAggregate(q);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(*avg, 2.0);
}

TEST(P2PDatabaseTest, ExactSumOverExpression) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  db.StoreAt(0).value()->Insert({1.0, 10.0});
  db.StoreAt(0).value()->Insert({2.0, 20.0});
  AggregateQuery q =
      AggregateQuery::Parse("SELECT SUM(x + y) FROM R").value();
  Result<double> sum = db.ExactAggregate(q);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(*sum, 33.0);
}

TEST(P2PDatabaseTest, ExactCount) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  db.StoreAt(0).value()->Insert({1.0, 1.0});
  db.StoreAt(0).value()->Insert({2.0, 2.0});
  AggregateQuery q = AggregateQuery::Parse("SELECT COUNT(*) FROM R").value();
  Result<double> count = db.ExactAggregate(q);
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(*count, 2.0);
}

TEST(P2PDatabaseTest, AvgOverEmptyRelationFails) {
  P2PDatabase db = MakeDb();
  AggregateQuery q = AggregateQuery::Parse("SELECT AVG(x) FROM R").value();
  EXPECT_EQ(db.ExactAggregate(q).status().code(),
            StatusCode::kFailedPrecondition);
  // SUM and COUNT of the empty relation are 0.
  AggregateQuery sum = AggregateQuery::Parse("SELECT SUM(x) FROM R").value();
  EXPECT_DOUBLE_EQ(db.ExactAggregate(sum).value(), 0.0);
  AggregateQuery cnt =
      AggregateQuery::Parse("SELECT COUNT(*) FROM R").value();
  EXPECT_DOUBLE_EQ(db.ExactAggregate(cnt).value(), 0.0);
}

TEST(P2PDatabaseTest, AggregateWithUnknownAttributeFails) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  db.StoreAt(0).value()->Insert({1.0, 1.0});
  AggregateQuery q = AggregateQuery::Parse("SELECT AVG(zzz) FROM R").value();
  EXPECT_EQ(db.ExactAggregate(q).status().code(), StatusCode::kNotFound);
}

TEST(P2PDatabaseTest, RemoveNodeDropsItsTuples) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  ASSERT_TRUE(db.AddNode(1).ok());
  db.StoreAt(0).value()->Insert({1.0, 0.0});
  db.StoreAt(1).value()->Insert({100.0, 0.0});
  ASSERT_TRUE(db.RemoveNode(1).ok());
  EXPECT_EQ(db.TotalTuples(), 1u);
  AggregateQuery q = AggregateQuery::Parse("SELECT AVG(x) FROM R").value();
  EXPECT_DOUBLE_EQ(db.ExactAggregate(q).value(), 1.0);
}

TEST(SchemaTest, CreateValidation) {
  EXPECT_FALSE(Schema::Create({}).ok());
  EXPECT_FALSE(Schema::Create({""}).ok());
  EXPECT_FALSE(Schema::Create({"a", "a"}).ok());
  Result<Schema> s = Schema::Create({"a", "b"});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->NumAttributes(), 2u);
  EXPECT_EQ(s->AttributeName(1), "b");
  EXPECT_EQ(s->AttributeIndex("b").value(), 1u);
  EXPECT_EQ(s->AttributeIndex("c").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace digest
