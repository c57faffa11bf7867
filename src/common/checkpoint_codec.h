#ifndef DIGEST_COMMON_CHECKPOINT_CODEC_H_
#define DIGEST_COMMON_CHECKPOINT_CODEC_H_

// The checkpoint codec: a JSON Writer and Reader driven by the same
// per-struct field list, so each key is spelled once and the two
// directions cannot drift apart. A checkpointed struct lists its fields
// in a member template, in output order:
//
//   template <class V>
//   void Fields(V& v) {
//     v("ticks", ticks);                      // encoded by C++ type
//     v("health", health, kNumHealthStates);  // enum below a bound
//     v.Index("peer", peer, kInvalidNode);    // plain integer in [0, bound)
//     v.Optional("meter", has_meter, meter);  // present iff has_meter
//     v.Check([&] { return a.size() == b.size(); }, "a/b length mismatch");
//   }
//
// One encoding per C++ type: doubles as %.17g (lossless through
// strtod); unsigned integers as decimal strings (a JSON double cannot
// hold 2^64-1); signed integers as plain JSON integers; bools; escaped
// strings; vectors and fixed arrays as arrays (a fixed array needs
// exactly its length); map<unsigned, T> as an object keyed by the
// decimal key; enums as the decimal string of their value; structs as
// the object of their Fields. The reader is strict: a missing member, a
// wrong JSON type, a value that does not fit the field's C++ type, an
// enum or index past its bound, an Optional member whose presence does
// not match, and a failed Check are InvalidArgument, naming the field's
// path. Members the list does not name are ignored. The writer skips
// Check: its rules span fields the reader has already filled.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"

namespace digest {
namespace ckpt {

/// Appends `value`'s JSON encoding to `*out`.
template <class T>
void Encode(std::string* out, const T& value);
/// Decodes `json` into `*value`, naming fields below `path` in errors.
/// On error `*value` is partly filled, so decode into a spare value and
/// install it only on success.
template <class T>
Status Decode(const json::Value& json, T* value, const std::string& path = {});

namespace internal {

template <class T>
concept Map = requires { typename T::mapped_type; };
template <class T>
concept Vector = requires(T v) { v.assign(0, typename T::value_type()); };

/// InvalidArgument "path: reason" (the bare reason at the root).
inline Status Error(const std::string& path, std::string_view reason) {
  std::string message(reason);
  return Status::InvalidArgument(path.empty() ? message
                                              : path + ": " + message);
}
/// "path.key" (the bare key at the root).
inline std::string Join(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "." + std::string(key);
}

}  // namespace internal

/// Emits one object's members in field-list order.
class Writer {
 public:
  explicit Writer(std::string* out, bool first = true)
      : out_(out), first_(first) {}

  template <class T>
  Writer& operator()(const char* key, const T& field) {
    Key(key);
    Encode(out_, field);
    return *this;
  }
  template <class E>
  Writer& operator()(const char* key, const E& field, size_t /*count*/) {
    static_assert(std::is_enum_v<E>, "a bound is for enums; see Index");
    return (*this)(key, static_cast<uint64_t>(field));
  }
  template <class I>
  Writer& Index(const char* key, const I& field, uint64_t /*bound*/) {
    return (*this)(key, static_cast<int64_t>(field));
  }
  template <class T>
  Writer& Optional(const char* key, bool present, const T& field) {
    return present ? (*this)(key, field) : *this;
  }
  template <class Rule>
  Writer& Check(Rule&& /*rule*/, std::string_view /*what*/) {
    return *this;
  }

 private:
  void Key(const char* key) {
    if (!first_) out_->push_back(',');
    first_ = false;
    out_->append("\"").append(key).append("\":");
  }

  std::string* out_;
  bool first_;
};

/// Fills one struct from one JSON object in field-list order. The first
/// error sticks and turns every later call into a no-op.
class Reader {
 public:
  Reader(const json::Value& object, std::string path)
      : object_(object), path_(std::move(path)) {}

  const Status& status() const { return status_; }

  template <class T>
  Reader& operator()(const char* key, T& field) {
    if (const json::Value* member = Require(key)) {
      status_ = Decode(*member, &field, internal::Join(path_, key));
    }
    return *this;
  }
  template <class E>
  Reader& operator()(const char* key, E& field, size_t count) {
    static_assert(std::is_enum_v<E>, "a bound is for enums; see Index");
    return Bounded<uint64_t>(key, field, count);
  }
  template <class I>
  Reader& Index(const char* key, I& field, uint64_t bound) {
    return Bounded<int64_t>(key, field, bound);
  }
  template <class T>
  Reader& Optional(const char* key, bool present, T& field) {
    if (status_.ok() && (object_.Find(key) != nullptr) != present) {
      return Fail(key, present ? "missing member" : "unexpected member");
    }
    return present ? (*this)(key, field) : *this;
  }
  template <class Rule>
  Reader& Check(Rule&& rule, std::string_view what) {
    if (status_.ok() && !rule()) status_ = internal::Error(path_, what);
    return *this;
  }

 private:
  /// The member named `key`, or null once an error is recorded.
  const json::Value* Require(const char* key) {
    if (!status_.ok()) return nullptr;
    const json::Value* member = object_.Find(key);
    if (member == nullptr) Fail(key, "missing member");
    return member;
  }
  Reader& Fail(const char* key, std::string_view reason) {
    status_ = internal::Error(internal::Join(path_, key), reason);
    return *this;
  }
  /// Reads `key` in the encoding of Raw, then requires [0, bound).
  template <class Raw, class T>
  Reader& Bounded(const char* key, T& field, uint64_t bound) {
    Raw raw = 0;
    if (!(*this)(key, raw).status_.ok()) return *this;
    if (std::cmp_less(raw, 0) || std::cmp_greater_equal(raw, bound)) {
      return Fail(key, "value out of range");
    }
    field = static_cast<T>(raw);
    return *this;
  }

  const json::Value& object_;
  std::string path_;
  Status status_;
};

template <class T>
void Encode(std::string* out, const T& value) {
  constexpr bool kMap = internal::Map<T>;
  if constexpr (std::is_same_v<T, bool>) {
    out->append(value ? "true" : "false");
  } else if constexpr (std::is_same_v<T, double>) {
    AppendDouble(out, value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out->push_back('"');
    AppendJsonEscaped(out, value);
    out->push_back('"');
  } else if constexpr (std::is_unsigned_v<T>) {
    out->append("\"").append(std::to_string(value)).append("\"");
  } else if constexpr (std::is_integral_v<T>) {
    out->append(std::to_string(value));
  } else if constexpr (std::is_array_v<T> || internal::Vector<T> ||
                       kMap) {
    out->push_back(kMap ? '{' : '[');
    bool first = true;
    for (const auto& element : value) {
      if (!first) out->push_back(',');
      first = false;
      if constexpr (kMap) {
        static_assert(std::is_unsigned_v<typename T::key_type>);
        out->append("\"").append(std::to_string(element.first)).append("\":");
        Encode(out, element.second);
      } else {
        Encode(out, element);
      }
    }
    out->push_back(kMap ? '}' : ']');
  } else {
    static_assert(std::is_class_v<T>, "no checkpoint encoding for this type");
    out->push_back('{');
    Writer writer(out);
    // Fields() is non-const so that one list serves both directions;
    // the Writer only reads through it.
    const_cast<T&>(value).Fields(writer);
    out->push_back('}');
  }
}

template <class T>
Status Decode(const json::Value& json, T* value, const std::string& path) {
  using internal::Error;
  if constexpr (std::is_same_v<T, bool>) {
    if (!json.is_bool()) return Error(path, "expected true or false");
    *value = json.bool_value();
  } else if constexpr (std::is_same_v<T, double>) {
    Result<double> number = json.AsDouble();
    if (!number.ok()) return Error(path, number.status().message());
    *value = *number;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!json.is_string()) return Error(path, "expected a string");
    *value = json.string_value();
  } else if constexpr (std::is_integral_v<T>) {
    auto number = [&] {
      if constexpr (std::is_signed_v<T>) return json.AsInt64();
      else return json.AsUInt64();
    }();
    if (!number.ok()) return Error(path, number.status().message());
    if (!std::in_range<T>(*number)) {
      return Error(path, "value does not fit the field");
    }
    *value = static_cast<T>(*number);
  } else if constexpr (std::is_array_v<T> || internal::Vector<T>) {
    if (!json.is_array()) return Error(path, "expected an array");
    const size_t n = json.array().size();
    if constexpr (std::is_array_v<T>) {
      if (n != std::extent_v<T>) {
        const std::string want = std::to_string(std::extent_v<T>);
        return Error(path, "expected " + want + " elements");
      }
    } else {
      value->assign(n, {});
    }
    for (size_t i = 0; i < n; ++i) {
      DIGEST_RETURN_IF_ERROR(Decode(json.array()[i], &(*value)[i],
                                    path + "[" + std::to_string(i) + "]"));
    }
  } else if constexpr (internal::Map<T>) {
    if (!json.is_object()) return Error(path, "expected an object");
    value->clear();
    for (const auto& [name, member] : json.members()) {
      const std::string member_path = internal::Join(path, name);
      typename T::key_type key{};
      typename T::mapped_type element{};
      DIGEST_RETURN_IF_ERROR(
          Decode(json::Value::MakeString(name), &key, member_path));
      DIGEST_RETURN_IF_ERROR(Decode(member, &element, member_path));
      if (!value->emplace(key, std::move(element)).second) {
        return Error(member_path, "duplicate key");
      }
    }
  } else {
    if (!json.is_object()) return Error(path, "expected an object");
    Reader reader(json, path);
    value->Fields(reader);
    return reader.status();
  }
  return Status::OK();
}

/// A versioned blob: `value`'s object with "version" as its first
/// member.
template <class T>
std::string EncodeBlob(std::string_view version, const T& value) {
  std::string out = "{\"version\":";
  Encode(&out, std::string(version));
  Writer writer(&out, /*first=*/false);
  const_cast<T&>(value).Fields(writer);
  out.push_back('}');
  return out;
}

/// Parses a blob written by EncodeBlob(version, ...) into `*value`, whose
/// Optional flags the caller has set, with Decode's partial-fill
/// caveat. The version tag is checked first, so a blob of another
/// format fails on its tag. Errors read "checkpoint: <path>: <reason>".
template <class T>
Status DecodeBlob(std::string_view text, std::string_view version,
                  T* value) {
  const Status status = [&]() -> Status {
    DIGEST_ASSIGN_OR_RETURN(const json::Value doc, json::Parse(text));
    DIGEST_ASSIGN_OR_RETURN(const std::string found, doc.GetString("version"));
    if (found == version) return Decode(doc, value);
    return Status::InvalidArgument("unsupported version '" + found +
                                   "' (this build reads " +
                                   std::string(version) + ")");
  }();
  if (status.ok()) return status;
  return Status::InvalidArgument("checkpoint: " + status.message());
}

}  // namespace ckpt
}  // namespace digest

#endif  // DIGEST_COMMON_CHECKPOINT_CODEC_H_
