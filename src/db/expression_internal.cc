#include "db/expression_internal.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace digest {
namespace expression_internal {
namespace {

NodePtr MakeAttribute(size_t slot) {
  auto n = std::make_shared<Node>();
  n->kind = NodeKind::kAttribute;
  n->attr_slot = slot;
  return n;
}

NodePtr MakeBinary(NodeKind kind, NodePtr lhs, NodePtr rhs) {
  auto n = std::make_shared<Node>();
  n->kind = kind;
  n->lhs = std::move(lhs);
  n->rhs = std::move(rhs);
  return n;
}

NodePtr MakeUnary(NodeKind kind, NodePtr operand) {
  auto n = std::make_shared<Node>();
  n->kind = kind;
  n->lhs = std::move(operand);
  return n;
}

Result<NodePtr> ParseNumber(Cursor& cursor) {
  const std::string_view text = cursor.text;
  const size_t start = cursor.pos;
  size_t& pos = cursor.pos;
  while (pos < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[pos])) ||
          text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
          ((text[pos] == '+' || text[pos] == '-') && pos > start &&
           (text[pos - 1] == 'e' || text[pos - 1] == 'E')))) {
    ++pos;
  }
  const std::string token(text.substr(start, pos - start));
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return Status::ParseError("malformed number '" + token + "'");
  }
  return MakeConstant(value);
}

Result<NodePtr> ParseIdentifier(Cursor& cursor,
                                std::vector<std::string>& attributes) {
  const std::string_view text = cursor.text;
  const size_t start = cursor.pos;
  size_t& pos = cursor.pos;
  while (pos < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[pos])) ||
          text[pos] == '_')) {
    ++pos;
  }
  const std::string name(text.substr(start, pos - start));
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (attributes[i] == name) return MakeAttribute(i);
  }
  attributes.push_back(name);
  return MakeAttribute(attributes.size() - 1);
}

Result<NodePtr> ParseFactor(Cursor& cursor,
                            std::vector<std::string>& attributes) {
  cursor.SkipSpace();
  if (cursor.pos >= cursor.text.size()) {
    return Status::ParseError("unexpected end of expression");
  }
  const char c = cursor.text[cursor.pos];
  if (c == '-') {
    ++cursor.pos;
    DIGEST_ASSIGN_OR_RETURN(NodePtr operand, ParseFactor(cursor, attributes));
    return MakeUnary(NodeKind::kNeg, std::move(operand));
  }
  if (c == '(') {
    ++cursor.pos;
    DIGEST_ASSIGN_OR_RETURN(NodePtr inner, ParseArithmetic(cursor, attributes));
    if (!cursor.Consume(')')) {
      return Status::ParseError("missing closing parenthesis");
    }
    return inner;
  }
  if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
    return ParseNumber(cursor);
  }
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    return ParseIdentifier(cursor, attributes);
  }
  return Status::ParseError(std::string("unexpected character '") + c +
                            "' at offset " + std::to_string(cursor.pos));
}

Result<NodePtr> ParseTerm(Cursor& cursor,
                          std::vector<std::string>& attributes) {
  DIGEST_ASSIGN_OR_RETURN(NodePtr lhs, ParseFactor(cursor, attributes));
  while (true) {
    if (cursor.Consume('*')) {
      DIGEST_ASSIGN_OR_RETURN(NodePtr rhs, ParseFactor(cursor, attributes));
      lhs = MakeBinary(NodeKind::kMul, std::move(lhs), std::move(rhs));
    } else if (cursor.Consume('/')) {
      DIGEST_ASSIGN_OR_RETURN(NodePtr rhs, ParseFactor(cursor, attributes));
      lhs = MakeBinary(NodeKind::kDiv, std::move(lhs), std::move(rhs));
    } else {
      return lhs;
    }
  }
}

// comparison := arith ( cmpOp arith
//                     | BETWEEN arith AND arith
//                     | [NOT] IN '(' arith (',' arith)* ')' ).
// BETWEEN and IN desugar onto the comparison/boolean nodes, so the
// evaluator and printer need no new cases.
Result<NodePtr> ParseComparison(Cursor& cursor,
                                std::vector<std::string>& attributes) {
  DIGEST_ASSIGN_OR_RETURN(NodePtr lhs, ParseArithmetic(cursor, attributes));
  if (cursor.ConsumeKeyword("BETWEEN")) {
    // x BETWEEN lo AND hi  =>  (x >= lo) AND (x <= hi). The AND here
    // belongs to BETWEEN, consumed before the conjunction level runs.
    DIGEST_ASSIGN_OR_RETURN(NodePtr lo, ParseArithmetic(cursor, attributes));
    if (!cursor.ConsumeKeyword("AND")) {
      return Status::ParseError("BETWEEN requires 'AND' at offset " +
                                std::to_string(cursor.pos));
    }
    DIGEST_ASSIGN_OR_RETURN(NodePtr hi, ParseArithmetic(cursor, attributes));
    return MakeBinary(NodeKind::kAnd,
                      MakeBinary(NodeKind::kGe, lhs, std::move(lo)),
                      MakeBinary(NodeKind::kLe, lhs, std::move(hi)));
  }
  bool negated_in = false;
  {
    Cursor saved = cursor;
    if (cursor.ConsumeKeyword("NOT")) {
      if (cursor.ConsumeKeyword("IN")) {
        negated_in = true;
      } else {
        cursor = saved;  // A stray NOT here is a parse error below.
      }
    }
  }
  if (negated_in || cursor.ConsumeKeyword("IN")) {
    // x IN (a, b, c)  =>  (x = a) OR (x = b) OR (x = c).
    if (!cursor.Consume('(')) {
      return Status::ParseError("IN requires a parenthesized list");
    }
    NodePtr any;
    while (true) {
      DIGEST_ASSIGN_OR_RETURN(NodePtr item,
                              ParseArithmetic(cursor, attributes));
      NodePtr eq = MakeBinary(NodeKind::kEq, lhs, std::move(item));
      any = any == nullptr
                ? std::move(eq)
                : MakeBinary(NodeKind::kOr, std::move(any), std::move(eq));
      if (cursor.Consume(',')) continue;
      if (cursor.Consume(')')) break;
      return Status::ParseError("expected ',' or ')' in IN list");
    }
    if (negated_in) {
      return MakeUnary(NodeKind::kNot, std::move(any));
    }
    return any;
  }
  cursor.SkipSpace();
  NodeKind kind;
  const std::string_view rest = cursor.text.substr(cursor.pos);
  size_t op_len = 0;
  if (rest.rfind("<=", 0) == 0) {
    kind = NodeKind::kLe;
    op_len = 2;
  } else if (rest.rfind(">=", 0) == 0) {
    kind = NodeKind::kGe;
    op_len = 2;
  } else if (rest.rfind("<>", 0) == 0 || rest.rfind("!=", 0) == 0) {
    kind = NodeKind::kNe;
    op_len = 2;
  } else if (rest.rfind("==", 0) == 0) {
    kind = NodeKind::kEq;
    op_len = 2;
  } else if (rest.rfind("<", 0) == 0) {
    kind = NodeKind::kLt;
    op_len = 1;
  } else if (rest.rfind(">", 0) == 0) {
    kind = NodeKind::kGt;
    op_len = 1;
  } else if (rest.rfind("=", 0) == 0) {
    kind = NodeKind::kEq;
    op_len = 1;
  } else {
    return Status::ParseError("expected comparison operator at offset " +
                              std::to_string(cursor.pos));
  }
  cursor.pos += op_len;
  DIGEST_ASSIGN_OR_RETURN(NodePtr rhs, ParseArithmetic(cursor, attributes));
  return MakeBinary(kind, std::move(lhs), std::move(rhs));
}

// unit := NOT unit | '(' pred ')' | comparison.
Result<NodePtr> ParseUnit(Cursor& cursor,
                          std::vector<std::string>& attributes) {
  if (cursor.ConsumeKeyword("NOT")) {
    DIGEST_ASSIGN_OR_RETURN(NodePtr operand, ParseUnit(cursor, attributes));
    return MakeUnary(NodeKind::kNot, std::move(operand));
  }
  cursor.SkipSpace();
  if (cursor.Peek() == '(') {
    // Ambiguous: "(a > 1) AND ..." vs "(a + 1) > 2". Try the boolean
    // reading first and backtrack to the comparison reading on failure.
    // The attribute intern list is also restored on backtrack.
    Cursor saved = cursor;
    const size_t saved_attrs = attributes.size();
    cursor.Consume('(');
    Result<NodePtr> inner = ParsePredicate(cursor, attributes);
    if (inner.ok() && cursor.Consume(')')) {
      return std::move(inner).value();
    }
    cursor = saved;
    attributes.resize(saved_attrs);
  }
  return ParseComparison(cursor, attributes);
}

}  // namespace

Result<std::vector<size_t>> ResolveAttributes(
    const std::vector<std::string>& attributes, const Schema& schema) {
  std::vector<size_t> indices;
  indices.reserve(attributes.size());
  for (const std::string& name : attributes) {
    DIGEST_ASSIGN_OR_RETURN(size_t index, schema.AttributeIndex(name));
    indices.push_back(index);
  }
  return indices;
}

NodePtr MakeConstant(double v) {
  auto n = std::make_shared<Node>();
  n->kind = NodeKind::kConstant;
  n->constant = v;
  return n;
}

void Cursor::SkipSpace() {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
}

bool Cursor::Consume(char c) {
  SkipSpace();
  if (pos < text.size() && text[pos] == c) {
    ++pos;
    return true;
  }
  return false;
}

char Cursor::Peek() {
  SkipSpace();
  return pos < text.size() ? text[pos] : '\0';
}

bool Cursor::ConsumeKeyword(std::string_view keyword) {
  SkipSpace();
  if (pos + keyword.size() > text.size()) return false;
  for (size_t i = 0; i < keyword.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(text[pos + i])) !=
        std::toupper(static_cast<unsigned char>(keyword[i]))) {
      return false;
    }
  }
  const size_t after = pos + keyword.size();
  if (after < text.size()) {
    const char c = text[after];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      return false;
    }
  }
  pos = after;
  return true;
}

Result<NodePtr> ParseArithmetic(Cursor& cursor,
                                std::vector<std::string>& attributes) {
  DIGEST_ASSIGN_OR_RETURN(NodePtr lhs, ParseTerm(cursor, attributes));
  while (true) {
    if (cursor.Consume('+')) {
      DIGEST_ASSIGN_OR_RETURN(NodePtr rhs, ParseTerm(cursor, attributes));
      lhs = MakeBinary(NodeKind::kAdd, std::move(lhs), std::move(rhs));
    } else if (cursor.Consume('-')) {
      DIGEST_ASSIGN_OR_RETURN(NodePtr rhs, ParseTerm(cursor, attributes));
      lhs = MakeBinary(NodeKind::kSub, std::move(lhs), std::move(rhs));
    } else {
      return lhs;
    }
  }
}

Result<NodePtr> ParsePredicate(Cursor& cursor,
                               std::vector<std::string>& attributes) {
  // conj (OR conj)*
  auto parse_conj = [&](auto&& self) -> Result<NodePtr> {
    (void)self;
    DIGEST_ASSIGN_OR_RETURN(NodePtr lhs, ParseUnit(cursor, attributes));
    while (cursor.ConsumeKeyword("AND")) {
      DIGEST_ASSIGN_OR_RETURN(NodePtr rhs, ParseUnit(cursor, attributes));
      lhs = MakeBinary(NodeKind::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  };
  DIGEST_ASSIGN_OR_RETURN(NodePtr lhs, parse_conj(parse_conj));
  while (cursor.ConsumeKeyword("OR")) {
    DIGEST_ASSIGN_OR_RETURN(NodePtr rhs, parse_conj(parse_conj));
    lhs = MakeBinary(NodeKind::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<double> EvaluateArithmetic(const Node& node, const Tuple& tuple,
                                  const std::vector<size_t>& attr_indices) {
  switch (node.kind) {
    case NodeKind::kConstant:
      return node.constant;
    case NodeKind::kAttribute: {
      const size_t index = attr_indices[node.attr_slot];
      if (index >= tuple.size()) {
        return Status::OutOfRange("tuple narrower than bound schema");
      }
      return tuple[index];
    }
    case NodeKind::kNeg: {
      DIGEST_ASSIGN_OR_RETURN(
          double v, EvaluateArithmetic(*node.lhs, tuple, attr_indices));
      return -v;
    }
    case NodeKind::kAdd:
    case NodeKind::kSub:
    case NodeKind::kMul:
    case NodeKind::kDiv:
      break;
    default:
      return Status::Internal("boolean node in arithmetic context");
  }
  DIGEST_ASSIGN_OR_RETURN(double lhs,
                          EvaluateArithmetic(*node.lhs, tuple, attr_indices));
  DIGEST_ASSIGN_OR_RETURN(double rhs,
                          EvaluateArithmetic(*node.rhs, tuple, attr_indices));
  double out = 0.0;
  switch (node.kind) {
    case NodeKind::kAdd:
      out = lhs + rhs;
      break;
    case NodeKind::kSub:
      out = lhs - rhs;
      break;
    case NodeKind::kMul:
      out = lhs * rhs;
      break;
    case NodeKind::kDiv:
      if (rhs == 0.0) {
        return Status::NumericError("division by zero in expression");
      }
      out = lhs / rhs;
      break;
    default:
      return Status::Internal("unreachable");
  }
  if (!std::isfinite(out)) {
    return Status::NumericError("non-finite expression result");
  }
  return out;
}

Result<bool> EvaluateBoolean(const Node& node, const Tuple& tuple,
                             const std::vector<size_t>& attr_indices) {
  switch (node.kind) {
    case NodeKind::kAnd: {
      DIGEST_ASSIGN_OR_RETURN(bool lhs,
                              EvaluateBoolean(*node.lhs, tuple, attr_indices));
      if (!lhs) return false;
      return EvaluateBoolean(*node.rhs, tuple, attr_indices);
    }
    case NodeKind::kOr: {
      DIGEST_ASSIGN_OR_RETURN(bool lhs,
                              EvaluateBoolean(*node.lhs, tuple, attr_indices));
      if (lhs) return true;
      return EvaluateBoolean(*node.rhs, tuple, attr_indices);
    }
    case NodeKind::kNot: {
      DIGEST_ASSIGN_OR_RETURN(bool v,
                              EvaluateBoolean(*node.lhs, tuple, attr_indices));
      return !v;
    }
    case NodeKind::kLt:
    case NodeKind::kLe:
    case NodeKind::kGt:
    case NodeKind::kGe:
    case NodeKind::kEq:
    case NodeKind::kNe:
      break;
    default:
      return Status::Internal("arithmetic node in boolean context");
  }
  DIGEST_ASSIGN_OR_RETURN(double lhs,
                          EvaluateArithmetic(*node.lhs, tuple, attr_indices));
  DIGEST_ASSIGN_OR_RETURN(double rhs,
                          EvaluateArithmetic(*node.rhs, tuple, attr_indices));
  switch (node.kind) {
    case NodeKind::kLt:
      return lhs < rhs;
    case NodeKind::kLe:
      return lhs <= rhs;
    case NodeKind::kGt:
      return lhs > rhs;
    case NodeKind::kGe:
      return lhs >= rhs;
    case NodeKind::kEq:
      return lhs == rhs;
    case NodeKind::kNe:
      return lhs != rhs;
    default:
      return Status::Internal("unreachable");
  }
}

void NodeToString(const Node& node, const std::vector<std::string>& attrs,
                  std::string& out) {
  switch (node.kind) {
    case NodeKind::kConstant: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", node.constant);
      out += buf;
      return;
    }
    case NodeKind::kAttribute:
      out += attrs[node.attr_slot];
      return;
    case NodeKind::kNeg:
      out += "(-";
      NodeToString(*node.lhs, attrs, out);
      out += ")";
      return;
    case NodeKind::kNot:
      out += "(NOT ";
      NodeToString(*node.lhs, attrs, out);
      out += ")";
      return;
    default:
      break;
  }
  const char* op = "?";
  switch (node.kind) {
    case NodeKind::kAdd:
      op = " + ";
      break;
    case NodeKind::kSub:
      op = " - ";
      break;
    case NodeKind::kMul:
      op = " * ";
      break;
    case NodeKind::kDiv:
      op = " / ";
      break;
    case NodeKind::kLt:
      op = " < ";
      break;
    case NodeKind::kLe:
      op = " <= ";
      break;
    case NodeKind::kGt:
      op = " > ";
      break;
    case NodeKind::kGe:
      op = " >= ";
      break;
    case NodeKind::kEq:
      op = " = ";
      break;
    case NodeKind::kNe:
      op = " != ";
      break;
    case NodeKind::kAnd:
      op = " AND ";
      break;
    case NodeKind::kOr:
      op = " OR ";
      break;
    default:
      break;
  }
  out += "(";
  NodeToString(*node.lhs, attrs, out);
  out += op;
  NodeToString(*node.rhs, attrs, out);
  out += ")";
}

}  // namespace expression_internal
}  // namespace digest
