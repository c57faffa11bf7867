#ifndef DIGEST_BASELINES_PUSH_SUM_H_
#define DIGEST_BASELINES_PUSH_SUM_H_

#include <cstdint>

#include "common/result.h"
#include "db/p2p_database.h"
#include "net/graph.h"
#include "net/message_meter.h"
#include "numeric/rng.h"

namespace digest {

/// Result of one gossip aggregation run.
struct PushSumResult {
  double value = 0.0;     ///< Aggregate estimate at the querying node.
  size_t rounds = 0;      ///< Gossip rounds executed.
  bool converged = false; ///< False if the round cap was hit first.
};

/// Push-sum gossip aggregation (Kempe et al.), one of the randomized
/// in-network techniques §VII discusses: every node repeatedly halves
/// its (sum, count, weight) triple and ships half to a uniformly random
/// neighbor; s/w, c/w converge to the network totals at every node.
///
/// The paper's critique, which this implementation lets benches verify:
/// every round costs one message *per node*, so the total cost is
/// O(N·rounds) per snapshot — justified only when all nodes want the
/// answer, not for a single querying node.
///
/// Weight placement: w = 1 at the querying node only, so at convergence
/// SUM = s/w, COUNT = c/w, and AVG = s/c. The network is assumed static
/// during a run (the paper's snapshot assumption).
class PushSumAggregator {
 public:
  PushSumAggregator(const Graph* graph, const P2PDatabase* db,
                    AggregateQuery query, NodeId querying_node,
                    MessageMeter* meter, Rng rng);

  /// Executes one full gossip aggregation over the current database
  /// state. Fails if the graph is empty or the expression fails.
  Result<PushSumResult> Run();

 private:
  const Graph* graph_;
  const P2PDatabase* db_;
  AggregateQuery query_;
  NodeId querying_node_;
  MessageMeter* meter_;
  Rng rng_;
};

}  // namespace digest

#endif  // DIGEST_BASELINES_PUSH_SUM_H_
