#ifndef DIGEST_BASELINES_OLSTON_FILTER_H_
#define DIGEST_BASELINES_OLSTON_FILTER_H_

#include <cstdint>
#include <map>
#include <utility>

#include "common/result.h"
#include "db/p2p_database.h"
#include "net/graph.h"
#include "net/message_meter.h"

namespace digest {

/// The ALL+FILTER baseline of §VI-B3, after Olston et al.: every data
/// source (tuple) holds a bound-width filter centered at its last
/// reported value; an update is pushed to the querying node only when
/// the value escapes its filter. Filter widths are adapted periodically:
/// all shrink by a fixed fraction and the reclaimed width budget is
/// re-granted proportionally to recent push counts. The total width
/// budget is Σw_i = 2·ε·N, which for an AVG query bounds the
/// coordinator's error by ε.
///
/// Supports AVG queries (the paper's experimental query). The evaluation
/// is push-based: each pushed update costs one message per overlay hop
/// toward the querying node; width re-grants cost one message per
/// adjusted source.
class OlstonFilterBaseline {
 public:
  /// `epsilon` is the precision-interval half-width (set so that
  /// H − L < 2ε to match Digest's contract, per §VI-B3). `meter` may be
  /// null.
  OlstonFilterBaseline(const Graph* graph, const P2PDatabase* db,
                       AggregateQuery query, NodeId querying_node,
                       double epsilon, MessageMeter* meter);

  /// Executes one tick of the push protocol and returns the
  /// coordinator's current AVG estimate.
  Result<double> Tick();

  /// Total updates pushed so far (before hop multiplication).
  uint64_t pushed_updates() const { return pushed_updates_; }

 private:
  struct SourceState {
    double reported = 0.0;  ///< Last value pushed to the coordinator.
    double width = 0.0;     ///< Current filter width w_i.
    uint64_t recent_pushes = 0;
  };

  Status EnsureInitialized();

  const Graph* graph_;
  const P2PDatabase* db_;
  AggregateQuery query_;
  NodeId querying_node_;
  double epsilon_;
  MessageMeter* meter_;
  Expression bound_expression_;
  bool initialized_ = false;

  std::map<std::pair<NodeId, LocalTupleId>, SourceState> sources_;
  size_t ticks_ = 0;
  uint64_t pushed_updates_ = 0;
};

}  // namespace digest

#endif  // DIGEST_BASELINES_OLSTON_FILTER_H_
