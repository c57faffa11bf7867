#include "db/predicate.h"

#include <utility>

#include "db/expression_internal.h"

namespace digest {

Result<Predicate> Predicate::Parse(std::string_view text) {
  Predicate pred;
  expression_internal::Cursor cursor{text, 0};
  auto root = expression_internal::ParsePredicate(cursor, pred.attributes_);
  if (!root.ok()) return root.status();
  cursor.SkipSpace();
  if (cursor.pos != text.size()) {
    return Status::ParseError("unexpected trailing input at offset " +
                              std::to_string(cursor.pos));
  }
  pred.root_ = std::move(*root);
  pred.attr_indices_.assign(pred.attributes_.size(), 0);
  pred.bound_ = pred.attributes_.empty();
  return pred;
}

Status Predicate::Bind(const Schema& schema) {
  // A failed Bind leaves the predicate unbound, so Evaluate fails
  // instead of reading the columns of an earlier schema.
  bound_ = false;
  DIGEST_ASSIGN_OR_RETURN(
      attr_indices_,
      expression_internal::ResolveAttributes(attributes_, schema));
  bound_ = true;
  return Status::OK();
}

Result<bool> Predicate::EvaluateTree(const Tuple& tuple) const {
  if (!bound_) {
    return Status::FailedPrecondition(
        "predicate must be bound to a schema before evaluation");
  }
  return expression_internal::EvaluateBoolean(*root_, tuple, attr_indices_);
}

std::string Predicate::ToString() const {
  if (root_ == nullptr) return "TRUE";
  std::string out;
  expression_internal::NodeToString(*root_, attributes_, out);
  return out;
}

}  // namespace digest
