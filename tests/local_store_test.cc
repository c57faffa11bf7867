#include "db/local_store.h"

#include <gtest/gtest.h>

#include <set>

namespace digest {
namespace {

TEST(LocalStoreTest, InsertAssignsFreshIds) {
  LocalStore store;
  const LocalTupleId a = store.Insert({1.0});
  const LocalTupleId b = store.Insert({2.0});
  EXPECT_NE(a, b);
  EXPECT_EQ(store.Size(), 2u);
  EXPECT_TRUE(store.Contains(a));
  EXPECT_TRUE(store.Contains(b));
}

TEST(LocalStoreTest, GetReturnsInsertedTuple) {
  LocalStore store;
  const LocalTupleId id = store.Insert({1.5, 2.5});
  Result<Tuple> t = store.Get(id);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, (Tuple{1.5, 2.5}));
  EXPECT_EQ(store.Get(999).status().code(), StatusCode::kNotFound);
}

TEST(LocalStoreTest, UpdateReplacesTuple) {
  LocalStore store;
  const LocalTupleId id = store.Insert({1.0});
  ASSERT_TRUE(store.Update(id, {9.0, 10.0}).ok());
  EXPECT_EQ(store.Get(id).value(), (Tuple{9.0, 10.0}));
  EXPECT_EQ(store.Update(999, {1.0}).code(), StatusCode::kNotFound);
}

TEST(LocalStoreTest, UpdateAttribute) {
  LocalStore store;
  const LocalTupleId id = store.Insert({1.0, 2.0});
  ASSERT_TRUE(store.UpdateAttribute(id, 1, 7.0).ok());
  EXPECT_EQ(store.Get(id).value(), (Tuple{1.0, 7.0}));
  EXPECT_EQ(store.UpdateAttribute(id, 5, 1.0).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(store.UpdateAttribute(999, 0, 1.0).code(),
            StatusCode::kNotFound);
}

TEST(LocalStoreTest, EraseRemovesAndNeverReusesIds) {
  LocalStore store;
  const LocalTupleId a = store.Insert({1.0});
  const LocalTupleId b = store.Insert({2.0});
  const LocalTupleId c = store.Insert({3.0});
  ASSERT_TRUE(store.Erase(b).ok());
  EXPECT_FALSE(store.Contains(b));
  EXPECT_EQ(store.Size(), 2u);
  EXPECT_EQ(store.Erase(b).code(), StatusCode::kNotFound);
  // Swap-remove must not corrupt the other tuples.
  EXPECT_EQ(store.Get(a).value(), (Tuple{1.0}));
  EXPECT_EQ(store.Get(c).value(), (Tuple{3.0}));
  const LocalTupleId d = store.Insert({4.0});
  EXPECT_NE(d, b);
}

TEST(LocalStoreTest, EraseHeavyChurnKeepsIndexConsistent) {
  LocalStore store;
  std::vector<LocalTupleId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(store.Insert({double(i)}));
  // Erase every third tuple.
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(store.Erase(ids[i]).ok());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_FALSE(store.Contains(ids[i]));
    } else {
      ASSERT_TRUE(store.Contains(ids[i]));
      EXPECT_EQ(store.Get(ids[i]).value()[0], double(i));
    }
  }
}

TEST(LocalStoreTest, UniformSampleFailsWhenEmpty) {
  LocalStore store;
  Rng rng(1);
  Rng untouched(1);
  EXPECT_EQ(store.UniformPick(rng), nullptr);
  EXPECT_EQ(rng.NextU64(), untouched.NextU64());  // No draw was taken.
}

TEST(LocalStoreTest, UniformSampleIsUniform) {
  LocalStore store;
  std::vector<LocalTupleId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(store.Insert({double(i)}));
  Rng rng(2);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) {
    const LocalStore::Slot* pick = store.UniformPick(rng);
    ASSERT_NE(pick, nullptr);
    ASSERT_EQ(store.Find(pick->id), &pick->tuple);
    ++counts[static_cast<size_t>(pick->tuple[0])];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(LocalStoreTest, ForEachVisitsEveryTupleOnce) {
  LocalStore store;
  std::set<LocalTupleId> expected;
  for (int i = 0; i < 20; ++i) expected.insert(store.Insert({double(i)}));
  std::set<LocalTupleId> seen;
  store.ForEach([&](LocalTupleId id, const Tuple& tuple) {
    EXPECT_TRUE(expected.count(id));
    EXPECT_EQ(tuple.size(), 1u);
    EXPECT_TRUE(seen.insert(id).second) << "visited twice";
  });
  EXPECT_EQ(seen.size(), expected.size());
}

}  // namespace
}  // namespace digest
