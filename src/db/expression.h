#ifndef DIGEST_DB_EXPRESSION_H_
#define DIGEST_DB_EXPRESSION_H_

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

/// Arithmetic expression over the attributes of R (paper §II:
/// `op(expression)` where expression involves the attributes).
///
/// Grammar (standard precedence, left associative):
///   expr   := term (('+' | '-') term)*
///   term   := factor (('*' | '/') factor)*
///   factor := '-' factor | NUMBER | IDENTIFIER | '(' expr ')'
///
/// An Expression is parsed once, bound against a Schema (resolving
/// attribute names to indices), and then evaluated per tuple without any
/// string handling. Expressions are immutable and cheaply copyable.
class Expression {
 public:
  /// An empty expression; evaluating it fails. Placeholder until a parsed
  /// expression is assigned.
  Expression() = default;

  /// Parses expression text. Fails with kParseError on malformed input.
  static Result<Expression> Parse(std::string_view text);

  /// Convenience: an expression that is a single attribute reference.
  static Expression Attribute(const std::string& name);

  /// Convenience: a constant expression.
  static Expression Constant(double value);

  /// Names of the attributes the expression references (deduplicated,
  /// in first-appearance order).
  const std::vector<std::string>& attributes() const { return attributes_; }

  /// Resolves attribute references against `schema`. Must be called
  /// before Evaluate. Fails if a referenced attribute is missing.
  Status Bind(const Schema& schema);

  /// True once Bind succeeded (or the expression references no
  /// attributes).
  bool bound() const { return bound_; }

  /// Evaluates the expression on `tuple` (laid out per the bound schema).
  /// Fails if unbound, on division by zero, or on a non-finite result.
  /// A bound bare attribute reads its column without the tree walk.
  Result<double> Evaluate(const Tuple& tuple) const {
    if (column_ < tuple.size()) return tuple[column_];
    return EvaluateTree(tuple);
  }

  /// Canonical text form (fully parenthesized).
  std::string ToString() const;

 private:
  static constexpr size_t kNoColumn = static_cast<size_t>(-1);

  /// The tree walk: every expression but a bound bare attribute, and
  /// that one too on a tuple narrower than the schema.
  Result<double> EvaluateTree(const Tuple& tuple) const;

  std::shared_ptr<const expression_internal::Node> root_;
  std::vector<std::string> attributes_;
  /// attr_indices_[i] is the schema index of attributes_[i] after Bind.
  std::vector<size_t> attr_indices_;
  /// The schema index a bound bare attribute reads; kNoColumn otherwise.
  size_t column_ = kNoColumn;
  bool bound_ = false;
};

}  // namespace digest

#endif  // DIGEST_DB_EXPRESSION_H_
