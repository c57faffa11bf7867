#ifndef DIGEST_DB_PREDICATE_H_
#define DIGEST_DB_PREDICATE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "db/schema.h"

namespace digest {

namespace expression_internal {
struct Node;
}  // namespace expression_internal

/// Boolean selection predicate over the attributes of R — the
/// "arbitrary select predicates" extension the paper lists as future
/// work (§VIII). Used in the optional WHERE clause of aggregate queries:
/// only qualifying tuples contribute to the aggregate.
///
/// Grammar (standard precedence; arithmetic sides reuse the Expression
/// grammar):
///   pred   := conj (OR conj)*
///   conj   := unit (AND unit)*
///   unit   := NOT unit | '(' pred ')' | comparison
///   comparison := arith ('<' | '<=' | '>' | '>=' | '=' | '==' |
///                        '!=' | '<>') arith
///
/// Keywords are case-insensitive. Like Expression, a Predicate is parsed
/// once, bound against a Schema, and evaluated per tuple; immutable and
/// cheaply copyable.
class Predicate {
 public:
  /// The always-true predicate (no WHERE clause). Needs no Bind.
  Predicate() = default;

  /// Parses predicate text. Fails with kParseError on malformed input.
  static Result<Predicate> Parse(std::string_view text);

  /// True iff this is the default always-true predicate.
  bool IsTrivial() const { return root_ == nullptr; }

  /// Names of referenced attributes (deduplicated, in appearance order).
  const std::vector<std::string>& attributes() const { return attributes_; }

  /// Resolves attribute references. Must precede Evaluate (trivial
  /// predicates are always bound).
  Status Bind(const Schema& schema);

  /// True once bound (or trivial).
  bool bound() const { return bound_; }

  /// Evaluates on a tuple. Fails if unbound or on arithmetic errors in
  /// the comparison operands.
  Result<bool> Evaluate(const Tuple& tuple) const {
    if (root_ == nullptr) return true;  // Trivial predicate.
    return EvaluateTree(tuple);
  }

  /// Canonical text form ("TRUE" for the trivial predicate).
  std::string ToString() const;

 private:
  /// Evaluates a non-trivial predicate.
  Result<bool> EvaluateTree(const Tuple& tuple) const;

  std::shared_ptr<const expression_internal::Node> root_;
  std::vector<std::string> attributes_;
  std::vector<size_t> attr_indices_;
  bool bound_ = true;  // Trivial predicate is bound by construction.
};

}  // namespace digest

#endif  // DIGEST_DB_PREDICATE_H_
