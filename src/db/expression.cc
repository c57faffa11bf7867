#include "db/expression.h"

#include <utility>

#include "db/expression_internal.h"

namespace digest {

Result<Expression> Expression::Parse(std::string_view text) {
  Expression expr;
  expression_internal::Cursor cursor{text, 0};
  auto root = expression_internal::ParseArithmetic(cursor, expr.attributes_);
  if (!root.ok()) return root.status();
  cursor.SkipSpace();
  if (cursor.pos != text.size()) {
    return Status::ParseError("unexpected trailing input at offset " +
                              std::to_string(cursor.pos));
  }
  expr.root_ = std::move(*root);
  expr.attr_indices_.assign(expr.attributes_.size(), 0);
  expr.bound_ = expr.attributes_.empty();
  return expr;
}

Expression Expression::Attribute(const std::string& name) {
  // A bare identifier always parses.
  return Parse(name).value();
}

Expression Expression::Constant(double value) {
  Expression expr;
  expr.root_ = expression_internal::MakeConstant(value);
  expr.bound_ = true;
  return expr;
}

Status Expression::Bind(const Schema& schema) {
  // A failed Bind leaves the expression unbound, so Evaluate fails
  // instead of reading the columns of an earlier schema.
  bound_ = false;
  column_ = kNoColumn;
  DIGEST_ASSIGN_OR_RETURN(
      attr_indices_,
      expression_internal::ResolveAttributes(attributes_, schema));
  bound_ = true;
  if (root_ != nullptr &&
      root_->kind == expression_internal::NodeKind::kAttribute) {
    column_ = attr_indices_[root_->attr_slot];
  }
  return Status::OK();
}

Result<double> Expression::EvaluateTree(const Tuple& tuple) const {
  if (!bound_) {
    return Status::FailedPrecondition(
        "expression must be bound to a schema before evaluation");
  }
  if (root_ == nullptr) {
    return Status::Internal("empty expression");
  }
  return expression_internal::EvaluateArithmetic(*root_, tuple,
                                                 attr_indices_);
}

std::string Expression::ToString() const {
  if (root_ == nullptr) return "<empty>";
  std::string out;
  expression_internal::NodeToString(*root_, attributes_, out);
  return out;
}

}  // namespace digest
