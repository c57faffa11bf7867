// The checkpoint codec (common/checkpoint_codec.h) and the engine and
// node blobs written with it: one encoding per C++ type, strict reads,
// golden blobs pinning the format byte for byte, and restores that
// reject a blob missing any member without touching the engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "checkpoint_fixture.h"
#include "common/checkpoint_codec.h"
#include "common/json.h"
#include "common/strings.h"

namespace digest {
namespace {

using ckpt_fixture::EngineCase;
using ckpt_fixture::EngineSession;
using ckpt_fixture::GoldenEngineCase;
using ckpt_fixture::NodeSession;

enum class Color { kRed = 0, kGreen = 1, kBlue = 2 };

struct Inner {
  double x = 0.0;
  std::vector<int64_t> ys;

  template <class V>
  void Fields(V& v) {
    v("x", x);
    v("ys", ys);
  }
};

/// One field of every kind the codec knows.
struct Sample {
  double d = 0.0;
  uint64_t u = 0;
  uint32_t narrow = 0;
  int64_t i = 0;
  int small = 0;
  bool b = false;
  std::string s;
  std::vector<double> xs;
  uint64_t fixed[2] = {};
  std::map<uint64_t, Inner> by_id;
  Color color = Color::kRed;
  int ladder = 0;
  Inner inner;
  bool has_extra = false;
  Inner extra;

  template <class V>
  void Fields(V& v) {
    v("d", d);
    v("u", u);
    v("narrow", narrow);
    v("i", i);
    v("small", small);
    v("b", b);
    v("s", s);
    v("xs", xs);
    v("fixed", fixed);
    v("by_id", by_id);
    v("color", color, 3);
    v.Index("ladder", ladder, 4);
    v("inner", inner);
    v.Optional("extra", has_extra, extra);
    v.Check([&] { return xs.size() <= 3; }, "at most three xs");
  }
};

Sample FilledSample() {
  Sample s;
  s.d = 0.1;
  s.u = UINT64_MAX;
  s.narrow = 7;
  s.i = -3;
  s.small = 2;
  s.b = true;
  s.s = "a\"b";
  s.xs = {1.5, -2.0};
  s.fixed[0] = 1;
  s.fixed[1] = 2;
  s.by_id[12] = Inner{2.5, {4, -5}};
  s.color = Color::kBlue;
  s.ladder = 3;
  s.inner = Inner{-0.25, {}};
  return s;
}

constexpr char kFilledJson[] =
    "{\"d\":0.10000000000000001,\"u\":\"18446744073709551615\","
    "\"narrow\":\"7\",\"i\":-3,\"small\":2,\"b\":true,\"s\":\"a\\\"b\","
    "\"xs\":[1.5,-2],\"fixed\":[\"1\",\"2\"],"
    "\"by_id\":{\"12\":{\"x\":2.5,\"ys\":[4,-5]}},\"color\":\"2\","
    "\"ladder\":3,\"inner\":{\"x\":-0.25,\"ys\":[]}}";

std::string Encoded(const Sample& s) {
  std::string out;
  ckpt::Encode(&out, s);
  return out;
}

/// Reads `text` as a Sample whose extra section is expected iff
/// `has_extra`.
Status ReadSample(const std::string& text, bool has_extra = false) {
  Result<json::Value> doc = json::Parse(text);
  if (!doc.ok()) return doc.status();
  Sample s;
  s.has_extra = has_extra;
  return ckpt::Decode(*doc, &s);
}

/// `text` with the first occurrence of `from` replaced by `to`.
std::string Replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(CheckpointCodecTest, EncodesEachTypeOneWay) {
  EXPECT_EQ(Encoded(FilledSample()), kFilledJson);
}

TEST(CheckpointCodecTest, RoundTripsByteIdentically) {
  Sample s = FilledSample();
  s.has_extra = true;
  s.extra.ys = {INT64_MIN, INT64_MAX};
  s.d = 5e-324;  // Denormal: %.17g must still round-trip.
  const std::string text = Encoded(s);
  Result<json::Value> doc = json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  Sample back;
  back.has_extra = true;
  ASSERT_TRUE(ckpt::Decode(*doc, &back).ok());
  EXPECT_EQ(Encoded(back), text);
  EXPECT_EQ(back.extra.ys[0], INT64_MIN);
  EXPECT_EQ(back.u, UINT64_MAX);
}

TEST(CheckpointCodecTest, RejectsValuesThatDoNotFitTheField) {
  const std::string good = kFilledJson;
  ASSERT_TRUE(ReadSample(good).ok());
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"narrow\":\"7\"", "\"narrow\":\"4294967296\""},
           {"\"small\":2", "\"small\":2147483648"},
           {"\"u\":\"18446744073709551615\"",
            "\"u\":\"18446744073709551616\""},
           {"\"u\":\"18446744073709551615\"", "\"u\":\"-1\""},
           {"\"i\":-3", "\"i\":-3.5"},
           {"\"d\":0.10000000000000001", "\"d\":1e999"},
           {"\"b\":true", "\"b\":1"},
           {"\"s\":\"a\\\"b\"", "\"s\":5"},
       }) {
    const Status status = ReadSample(Replaced(good, from, to));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << to;
  }
  const Status status = ReadSample(
      Replaced(good, "\"narrow\":\"7\"", "\"narrow\":\"4294967301\""));
  EXPECT_NE(status.message().find("narrow"), std::string::npos)
      << status.message();
}

TEST(CheckpointCodecTest, BoundsEnumsAndIndices) {
  const std::string good = kFilledJson;
  EXPECT_FALSE(
      ReadSample(Replaced(good, "\"color\":\"2\"", "\"color\":\"3\"")).ok());
  EXPECT_FALSE(
      ReadSample(Replaced(good, "\"ladder\":3", "\"ladder\":4")).ok());
  EXPECT_FALSE(
      ReadSample(Replaced(good, "\"ladder\":3", "\"ladder\":-1")).ok());
  EXPECT_TRUE(
      ReadSample(Replaced(good, "\"ladder\":3", "\"ladder\":0")).ok());
}

TEST(CheckpointCodecTest, FixedArraysNeedTheirLength) {
  const std::string good = kFilledJson;
  EXPECT_FALSE(ReadSample(Replaced(good, "\"fixed\":[\"1\",\"2\"]",
                                   "\"fixed\":[\"1\"]"))
                   .ok());
  EXPECT_FALSE(ReadSample(Replaced(good, "\"fixed\":[\"1\",\"2\"]",
                                   "\"fixed\":[\"1\",\"2\",\"3\"]"))
                   .ok());
}

TEST(CheckpointCodecTest, OptionalPresenceMustMatchBothWays) {
  Sample with = FilledSample();
  with.has_extra = true;
  const std::string with_text = Encoded(with);
  EXPECT_NE(with_text.find("\"extra\":"), std::string::npos);
  EXPECT_TRUE(ReadSample(with_text, /*has_extra=*/true).ok());
  EXPECT_EQ(ReadSample(with_text, /*has_extra=*/false).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadSample(kFilledJson, /*has_extra=*/true).code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointCodecTest, ChecksBindTheReaderOnly) {
  Sample s = FilledSample();
  s.xs = {1, 2, 3, 4};
  const std::string text = Encoded(s);  // The writer skips the rule...
  EXPECT_NE(text.find("\"xs\":[1,2,3,4]"), std::string::npos);
  const Status status = ReadSample(text);  // ...the reader enforces it.
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "at most three xs");
}

TEST(CheckpointCodecTest, ErrorsNameTheFieldPath) {
  const std::string good = kFilledJson;
  Status status = ReadSample(Replaced(good, "\"ys\":[4,-5]", "\"zs\":[]"));
  EXPECT_EQ(status.message(), "by_id.12.ys: missing member");
  status = ReadSample(Replaced(good, "\"ys\":[4,-5]", "\"ys\":[4,\"x\"]"));
  EXPECT_EQ(status.message().rfind("by_id.12.ys[1]: ", 0), 0u)
      << status.message();
  status = ReadSample(Replaced(good, "\"12\":", "\"1x\":"));
  EXPECT_EQ(status.message().rfind("by_id.1x: ", 0), 0u) << status.message();
}

TEST(CheckpointCodecTest, BlobVersionIsCheckedFirst) {
  const std::string blob = ckpt::EncodeBlob("codec-test-v1", FilledSample());
  EXPECT_EQ(blob.rfind("{\"version\":\"codec-test-v1\",\"d\":", 0), 0u);
  Sample back;
  EXPECT_TRUE(ckpt::DecodeBlob(blob, "codec-test-v1", &back).ok());
  EXPECT_EQ(Encoded(back), kFilledJson);
  const Status status = ckpt::DecodeBlob(
      Replaced(blob, "\"d\":", "\"e\":"), "codec-test-v2", &back);
  EXPECT_NE(status.message().find("unsupported version"), std::string::npos)
      << status.message();
  EXPECT_EQ(ckpt::DecodeBlob("{", "codec-test-v1", &back).code(),
            StatusCode::kInvalidArgument);
}

// --- Golden blobs: the format, pinned byte for byte ---

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(DIGEST_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  std::string blob = text.str();
  if (!blob.empty() && blob.back() == '\n') blob.pop_back();
  return blob;
}

TEST(CheckpointGoldenTest, EngineBlobRestoresAndRewritesByteIdentically) {
  const std::string golden = ReadGolden("golden_engine_checkpoint.json");
  ASSERT_FALSE(golden.empty());
  EngineSession session(GoldenEngineCase());
  ASSERT_TRUE(session.engine().Restore(golden).ok());
  EXPECT_EQ(session.engine().Checkpoint().value(), golden);
  // And the same session, run anew, writes those bytes today.
  EngineSession fresh(GoldenEngineCase());
  ASSERT_TRUE(fresh.Run(ckpt_fixture::kGoldenEngineTicks).ok());
  EXPECT_EQ(fresh.engine().Checkpoint().value(), golden);
}

TEST(CheckpointGoldenTest, NodeBlobRestoresAndRewritesByteIdentically) {
  const std::string golden = ReadGolden("golden_node_checkpoint.json");
  ASSERT_FALSE(golden.empty());
  NodeSession session(/*coalesce=*/true);
  ASSERT_TRUE(session.node().Restore(golden).ok());
  EXPECT_EQ(session.node().Checkpoint().value(), golden);
  NodeSession fresh(/*coalesce=*/true);
  ASSERT_TRUE(fresh.Run(ckpt_fixture::kGoldenNodeTicks).ok());
  EXPECT_EQ(fresh.node().Checkpoint().value(), golden);
}

// --- Restore rejects what it cannot install faithfully ---

/// Re-emits `v` as compact JSON. Object members are numbered in
/// document order, descending only into the first element of each
/// array; the member numbered `skip` is dropped, and `paths` (if
/// given) collects each numbered member's path.
void Emit(const json::Value& v, const std::string& path, bool numbered,
          int skip, int* counter, std::vector<std::string>* paths,
          std::string* out) {
  switch (v.type()) {
    case json::Value::Type::kNull:
      *out += "null";
      break;
    case json::Value::Type::kBool:
      *out += v.bool_value() ? "true" : "false";
      break;
    case json::Value::Type::kNumber:
      *out += v.number_text();
      break;
    case json::Value::Type::kString:
      out->append("\"").append(JsonEscape(v.string_value())).append("\"");
      break;
    case json::Value::Type::kArray:
      *out += '[';
      for (size_t i = 0; i < v.array().size(); ++i) {
        if (i > 0) *out += ',';
        Emit(v.array()[i], path + "[" + std::to_string(i) + "]",
             numbered && i == 0, skip, counter, paths, out);
      }
      *out += ']';
      break;
    case json::Value::Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, member] : v.members()) {
        const std::string member_path = path + "/" + key;
        if (numbered) {
          if (paths != nullptr) paths->push_back(member_path);
          if ((*counter)++ == skip) continue;
        }
        if (!first) *out += ',';
        first = false;
        out->append("\"").append(JsonEscape(key)).append("\":");
        Emit(member, member_path, numbered, skip, counter, paths, out);
      }
      *out += '}';
      break;
    }
  }
}

/// `blob` without its `skip`-th numbered member (all of it for -1).
std::string Without(const std::string& blob, int skip,
                    std::vector<std::string>* paths = nullptr) {
  const json::Value doc = json::Parse(blob).value();
  int counter = 0;
  std::string out;
  Emit(doc, "", /*numbered=*/true, skip, &counter, paths, &out);
  return out;
}

template <class Target>
void ExpectEveryRemovalRejected(Target& target) {
  const std::string blob = target.Checkpoint().value();
  std::vector<std::string> paths;
  ASSERT_EQ(Without(blob, -1, &paths), blob);  // Emit is faithful.
  ASSERT_GT(paths.size(), 30u);
  for (size_t k = 0; k < paths.size(); ++k) {
    const std::string tampered = Without(blob, static_cast<int>(k));
    EXPECT_EQ(target.Restore(tampered).code(), StatusCode::kInvalidArgument)
        << "accepted a blob without " << paths[k];
    ASSERT_EQ(target.Checkpoint().value(), blob)
        << "rejecting a blob without " << paths[k] << " changed state";
  }
}

/// A SUM engine whose N comes from the sampled size oracle. The sum is
/// of load / 100, so the fixture's ε = 4 asks for pilot-sized samples.
EngineCase SampledOracleCase() {
  EngineCase c;
  c.query = "SELECT SUM(load / 100) FROM R";
  c.size_oracle = SizeOracleKind::kSampled;
  return c;
}

TEST(CheckpointRestoreTest, EngineBlobMissingAnyMemberIsRejectedUnapplied) {
  EngineSession session(GoldenEngineCase());  // Meter, auditor, health.
  ASSERT_TRUE(session.Run(5).ok());
  const std::string blob = session.engine().Checkpoint().value();
  for (const char* section : {"\"meter\":", "\"audit\":", "\"health\":{"}) {
    ASSERT_NE(blob.find(section), std::string::npos) << section;
  }
  ExpectEveryRemovalRejected(session.engine());

  EngineSession sampled(SampledOracleCase());
  ASSERT_TRUE(sampled.Run(5).ok());
  const std::string sampled_blob = sampled.engine().Checkpoint().value();
  for (const char* section : {"\"uniform\":", "\"size_oracle\":"}) {
    ASSERT_NE(sampled_blob.find(section), std::string::npos) << section;
  }
  ExpectEveryRemovalRejected(sampled.engine());
}

TEST(CheckpointRestoreTest, SampledSizeOracleResumesItsCachedEstimate) {
  // The sampled oracle re-walks for |R|^ only every refresh_period
  // queries. A restored engine must reuse the cached estimate exactly
  // as often as the uninterrupted one, or it walks off schedule and
  // scales its answers by another N.
  EngineSession uninterrupted(SampledOracleCase());
  EngineSession restored(SampledOracleCase());
  ASSERT_TRUE(uninterrupted.Run(5).ok());
  ASSERT_TRUE(restored.Run(5).ok());
  const std::string blob = restored.engine().Checkpoint().value();
  ASSERT_TRUE(restored.Rebuild().ok());
  ASSERT_TRUE(restored.engine().Restore(blob).ok());
  for (int tick = 6; tick <= 40; ++tick) {
    const Result<EngineTickResult> a = uninterrupted.Tick();
    const Result<EngineTickResult> b = restored.Tick();
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->reported_value, b->reported_value) << "tick " << tick;
    EXPECT_EQ(a->ci_halfwidth, b->ci_halfwidth) << "tick " << tick;
  }
  EXPECT_EQ(uninterrupted.meter()->Total(), restored.meter()->Total());
  EXPECT_EQ(uninterrupted.engine().Checkpoint().value(),
            restored.engine().Checkpoint().value());
}

TEST(CheckpointRestoreTest, NodeBlobMissingAnyMemberIsRejectedUnapplied) {
  NodeSession session(/*coalesce=*/true);
  ASSERT_TRUE(session.Run(4).ok());
  ExpectEveryRemovalRejected(session.node());
}

TEST(CheckpointRestoreTest, NodeWithABadEngineBlobInstallsNothing) {
  // A's second engine blob is broken. Restore must fail before it
  // installs the node's RNG, ledger, shared operator, sampler stream or
  // first engine, so the node stays exactly at B.
  NodeSession session(/*coalesce=*/true);
  ASSERT_TRUE(session.Run(5).ok());
  const std::string a = session.node().Checkpoint().value();
  ASSERT_TRUE(session.Run(5).ok());
  const std::string b = session.node().Checkpoint().value();
  ASSERT_NE(a, b);

  const json::Value doc = json::Parse(a).value();
  const json::Value* queries = doc.Find("queries");
  ASSERT_NE(queries, nullptr);
  ASSERT_EQ(queries->members().size(), 2u);
  const std::string second = queries->members()[1].second.string_value();
  const std::string broken =
      Replaced(second, "\"rho_hat\":", "\"rho_hat_typo\":");
  const std::string tampered =
      Replaced(a, JsonEscape(second), JsonEscape(broken));
  ASSERT_NE(tampered, a);

  EXPECT_EQ(session.node().Restore(tampered).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.node().Checkpoint().value(), b);
  // The intact blob still restores.
  ASSERT_TRUE(session.node().Restore(a).ok());
  EXPECT_EQ(session.node().Checkpoint().value(), a);
}

TEST(CheckpointRestoreTest, MeterSectionMustMatchTheEngineBothWays) {
  EngineCase metered;
  metered.auditor = false;
  metered.health = false;
  EngineCase unmetered = metered;
  unmetered.meter = false;
  EngineSession with(metered);
  EngineSession without(unmetered);
  ASSERT_TRUE(with.Run(3).ok());
  ASSERT_TRUE(without.Run(3).ok());
  const std::string with_blob = with.engine().Checkpoint().value();
  const std::string without_blob = without.engine().Checkpoint().value();
  ASSERT_NE(with_blob.find("\"meter\":"), std::string::npos);
  ASSERT_EQ(without_blob.find("\"meter\":"), std::string::npos);

  // A blob without the section would leave the meter's counts behind.
  const uint64_t total = with.meter()->Total();
  ASSERT_GT(total, 0u);
  EXPECT_EQ(with.engine().Restore(without_blob).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(with.meter()->Total(), total);
  EXPECT_EQ(with.engine().Checkpoint().value(), with_blob);

  // A blob with the section has nowhere to put it.
  EXPECT_EQ(without.engine().Restore(with_blob).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(without.engine().Checkpoint().value(), without_blob);
}

TEST(CheckpointRestoreTest, AgentPositionPastNodeIdRangeIsRejected) {
  EngineSession session(GoldenEngineCase());
  ASSERT_TRUE(session.Run(3).ok());
  const std::string blob = session.engine().Checkpoint().value();
  const std::string key = "\"agent_positions\":[\"";
  const size_t start = blob.find(key);
  ASSERT_NE(start, std::string::npos);
  const size_t digits = start + key.size();
  const size_t end = blob.find('"', digits);
  // 2^32 + 5: a static_cast to the 32-bit NodeId would make it node 5.
  std::string tampered = blob;
  tampered.replace(digits, end - digits, "4294967301");
  EXPECT_EQ(session.engine().Restore(tampered).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.engine().Checkpoint().value(), blob);
}

TEST(CheckpointRestoreTest, NonZeroAgentCursorIsRejected) {
  // Every batch walks the warm agents from the first, so the saved
  // cursor is always 0; any other value is a hand-made blob.
  EngineSession session(GoldenEngineCase());
  ASSERT_TRUE(session.Run(3).ok());
  const std::string blob = session.engine().Checkpoint().value();
  const std::string tampered =
      Replaced(blob, "\"next_agent\":\"0\"", "\"next_agent\":\"3\"");
  EXPECT_EQ(session.engine().Restore(tampered).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.engine().Checkpoint().value(), blob);
}

TEST(CheckpointRestoreTest, AuditRecordHealthPastIntRangeIsRejected) {
  audit::PrecisionAuditor::State state;
  audit::CoverageRecord record;
  record.health = 1;
  state.records.push_back(record);
  std::string encoded;
  ckpt::Encode(&encoded, state);
  audit::PrecisionAuditor::State decoded;
  ASSERT_TRUE(ckpt::Decode(json::Parse(encoded).value(), &decoded).ok());
  // 2^32 + 1: a static_cast to int would make it ladder index 1.
  const std::string tampered =
      Replaced(encoded, "\"health\":1,", "\"health\":4294967297,");
  EXPECT_EQ(ckpt::Decode(json::Parse(tampered).value(), &decoded).code(),
            StatusCode::kInvalidArgument);

  // And through the engine, on a ledger record of a live blob.
  EngineSession session(GoldenEngineCase());
  ASSERT_TRUE(session.Run(3).ok());
  const std::string blob = session.engine().Checkpoint().value();
  const std::string engine_tampered =
      Replaced(blob, "\"quarantine\":false,\"health\":0,",
               "\"quarantine\":false,\"health\":4294967296,");
  EXPECT_EQ(session.engine().Restore(engine_tampered).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.engine().Checkpoint().value(), blob);
}

}  // namespace
}  // namespace digest
