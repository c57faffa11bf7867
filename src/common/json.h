#ifndef DIGEST_COMMON_JSON_H_
#define DIGEST_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace digest {
namespace json {

/// Minimal JSON document model + recursive-descent parser.
///
/// This exists for the checkpoint codec (common/checkpoint_codec.h),
/// which reads back the engine, node, audit and health blobs it wrote
/// (objects, arrays, strings escaped by AppendJsonEscaped, numbers
/// printed with %.17g, and uint64 values carried as decimal strings
/// because a JSON double cannot hold 2^64-1). It is a strict parser —
/// trailing garbage, trailing commas, and unescaped control characters
/// are errors — and all failures surface as Status::InvalidArgument,
/// never exceptions.
///
/// Numbers are kept as their raw source text; callers pick the lossless
/// conversion they need (AsDouble / AsInt64 / AsUInt64).
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Valid only for kBool.
  bool bool_value() const { return bool_; }

  /// Raw number text (e.g. "1.5e-3"); valid only for kNumber.
  const std::string& number_text() const { return scalar_; }

  /// Decoded string contents; valid only for kString.
  const std::string& string_value() const { return scalar_; }

  /// Elements; valid only for kArray.
  const std::vector<Value>& array() const { return array_; }

  /// Members in source order; valid only for kObject.
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

  /// First member named `key`, or nullptr (also for non-objects).
  const Value* Find(std::string_view key) const;

  /// Typed lookups: InvalidArgument if missing or the wrong type.
  Result<bool> GetBool(std::string_view key) const;
  Result<double> GetDouble(std::string_view key) const;
  Result<int64_t> GetInt64(std::string_view key) const;
  Result<uint64_t> GetUInt64(std::string_view key) const;
  Result<std::string> GetString(std::string_view key) const;
  Result<const Value*> GetArray(std::string_view key) const;
  Result<const Value*> GetObject(std::string_view key) const;

  /// Numeric conversions; InvalidArgument on non-numbers, overflow, or
  /// (for the integer forms) fractional/exponent text.
  Result<double> AsDouble() const;
  Result<int64_t> AsInt64() const;
  Result<uint64_t> AsUInt64() const;

  static Value MakeNull() { return Value(); }
  static Value MakeBool(bool b);
  static Value MakeNumber(std::string text);
  static Value MakeString(std::string s);
  static Value MakeArray(std::vector<Value> elems);
  static Value MakeObject(std::vector<std::pair<std::string, Value>> members);

 private:
  Type type_;
  bool bool_ = false;
  std::string scalar_;  // number text or decoded string
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parses a complete JSON document; the whole input must be consumed
/// (aside from trailing whitespace).
Result<Value> Parse(std::string_view text);

}  // namespace json
}  // namespace digest

#endif  // DIGEST_COMMON_JSON_H_
