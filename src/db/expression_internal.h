#ifndef DIGEST_DB_EXPRESSION_INTERNAL_H_
#define DIGEST_DB_EXPRESSION_INTERNAL_H_

// Implementation details shared by Expression (arithmetic) and
// Predicate (boolean). Not part of the public API.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "db/schema.h"

namespace digest {
namespace expression_internal {

enum class NodeKind {
  // Arithmetic.
  kConstant,
  kAttribute,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kNeg,
  // Comparisons (boolean-valued, arithmetic children).
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  // Boolean connectives (boolean children).
  kAnd,
  kOr,
  kNot,
};

struct Node {
  NodeKind kind;
  double constant = 0.0;  // kConstant
  size_t attr_slot = 0;   // kAttribute: index into the intern list.
  std::shared_ptr<const Node> lhs;
  std::shared_ptr<const Node> rhs;  // Unused by kNeg/kNot.
};

using NodePtr = std::shared_ptr<const Node>;

NodePtr MakeConstant(double v);

/// Text cursor shared by the arithmetic and predicate parsers.
struct Cursor {
  std::string_view text;
  size_t pos = 0;

  void SkipSpace();
  bool Consume(char c);
  char Peek();
  /// Case-insensitive keyword with word boundary; consumes on match.
  bool ConsumeKeyword(std::string_view keyword);
};

/// Parses an arithmetic expression at the cursor (does not require the
/// cursor to be exhausted afterwards). Attribute names are interned into
/// `attributes`.
Result<NodePtr> ParseArithmetic(Cursor& cursor,
                                std::vector<std::string>& attributes);

/// Parses a boolean predicate at the cursor.
Result<NodePtr> ParsePredicate(Cursor& cursor,
                               std::vector<std::string>& attributes);

/// The schema column of each name in `attributes`, in order. Fails on
/// the first name the schema lacks. Both Binds resolve through this and
/// commit only on success.
Result<std::vector<size_t>> ResolveAttributes(
    const std::vector<std::string>& attributes, const Schema& schema);

/// Evaluates an arithmetic subtree.
Result<double> EvaluateArithmetic(const Node& node, const Tuple& tuple,
                                  const std::vector<size_t>& attr_indices);

/// Evaluates a boolean subtree.
Result<bool> EvaluateBoolean(const Node& node, const Tuple& tuple,
                             const std::vector<size_t>& attr_indices);

/// Appends the canonical (parenthesized) text form of a subtree.
void NodeToString(const Node& node, const std::vector<std::string>& attrs,
                  std::string& out);

}  // namespace expression_internal
}  // namespace digest

#endif  // DIGEST_DB_EXPRESSION_INTERNAL_H_
