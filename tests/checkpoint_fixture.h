#ifndef DIGEST_TESTS_CHECKPOINT_FIXTURE_H_
#define DIGEST_TESTS_CHECKPOINT_FIXTURE_H_

// Small, fully deterministic engine and node sessions for the
// checkpoint batteries, with every optional checkpoint section
// switchable. The golden blobs in tests/data were written from these
// sessions (GoldenEngineCase after kGoldenEngineTicks ticks, a
// coalescing NodeSession after kGoldenNodeTicks), so their construction
// must not change.

#include <memory>
#include <vector>

#include "audit/audit.h"
#include "common/result.h"
#include "common/status.h"
#include "core/digest_node.h"
#include "core/engine.h"
#include "db/p2p_database.h"
#include "net/fault_plan.h"
#include "net/message_meter.h"
#include "net/peer_health.h"
#include "net/topology.h"
#include "numeric/rng.h"

namespace digest {
namespace ckpt_fixture {

constexpr int kGoldenEngineTicks = 8;
constexpr int kGoldenNodeTicks = 6;

/// A 4x4 mesh holding four "load" tuples per peer, each drifting by
/// AR(1) around 50 once per tick.
class DriftData {
 public:
  explicit DriftData(uint64_t seed)
      : graph_(MakeMesh(4, 4).value()),
        db_(Schema::Create({"load"}).value()),
        rng_(seed) {
    for (NodeId node : graph_.LiveNodes()) {
      (void)db_.AddNode(node);
      LocalStore* store = db_.StoreAt(node).value();
      for (int i = 0; i < 4; ++i) {
        const double value = rng_.NextGaussian(50.0, 10.0);
        tuples_.push_back({node, store->Insert({value}), value});
      }
    }
  }

  const Graph& graph() const { return graph_; }
  const P2PDatabase& db() const { return db_; }
  int64_t now() const { return now_; }

  Status Advance() {
    ++now_;
    for (Tuple& t : tuples_) {
      t.value = 50.0 + 0.8 * (t.value - 50.0) + rng_.NextGaussian(0.0, 2.0);
      DIGEST_ASSIGN_OR_RETURN(LocalStore * store, db_.StoreAt(t.node));
      DIGEST_RETURN_IF_ERROR(store->UpdateAttribute(t.id, 0, t.value));
    }
    return Status::OK();
  }

 private:
  struct Tuple {
    NodeId node;
    LocalTupleId id;
    double value;
  };

  Graph graph_;
  P2PDatabase db_;
  Rng rng_;
  std::vector<Tuple> tuples_;
  int64_t now_ = 0;
};

/// One engine construction. `health` also attaches a lossy fault plan,
/// so the monitor has per-peer state to carry.
struct EngineCase {
  const char* query = "SELECT AVG(load) FROM R";
  EstimatorKind estimator = EstimatorKind::kRepeated;
  SamplerKind sampler = SamplerKind::kTwoStageMcmc;
  SizeOracleKind size_oracle = SizeOracleKind::kExact;
  bool meter = true;
  bool auditor = true;
  bool health = true;
};

/// The golden engine blob's construction: RPT over two-stage MCMC with
/// meter, auditor and health attached.
inline EngineCase GoldenEngineCase() { return EngineCase(); }

inline FaultPlanConfig LossyFaults() {
  FaultPlanConfig faults;
  faults.message_loss = 0.05;
  return faults;
}

/// An engine over DriftData, with the instruments its case attaches.
class EngineSession {
 public:
  explicit EngineSession(const EngineCase& c)
      : case_(c), data_(11), plan_(LossyFaults(), 23) {
    spec_ = ContinuousQuerySpec::Create(c.query, PrecisionSpec{1.0, 4.0, 0.9})
                .value();
    options_.estimator = c.estimator;
    options_.sampler = c.sampler;
    options_.size_oracle = c.size_oracle;
    options_.sampling_options.walk_length = 16;
    options_.sampling_options.reset_length = 4;
    if (c.health) {
      options_.fault_plan = &plan_;
      options_.health = &health_;
    }
    if (c.auditor) options_.auditor = &auditor_;
    engine_ = Build().value();
    if (c.auditor) auditor_.BeginRun("checkpoint-fixture");
  }

  DigestEngine& engine() { return *engine_; }
  MessageMeter* meter() { return case_.meter ? &meter_ : nullptr; }

  /// One tick: the data moves, the fault clock follows, the engine
  /// ticks, and the auditor resolves the tick against the exact answer.
  Result<EngineTickResult> Tick() {
    DIGEST_RETURN_IF_ERROR(data_.Advance());
    plan_.set_now(data_.now());
    DIGEST_ASSIGN_OR_RETURN(const double truth,
                            data_.db().ExactAggregate(spec_.query));
    DIGEST_ASSIGN_OR_RETURN(EngineTickResult result,
                            engine_->Tick(data_.now()));
    if (case_.auditor) auditor_.RecordTruth(data_.now(), truth);
    return result;
  }

  Status Run(int ticks) {
    for (int i = 0; i < ticks; ++i) DIGEST_RETURN_IF_ERROR(Tick().status());
    return Status::OK();
  }

  /// Drops the engine and builds a fresh one over the same data, with
  /// blank instruments, as a restarted process would.
  Status Rebuild() {
    engine_.reset();
    meter_.Reset();
    health_.Reset();
    DIGEST_ASSIGN_OR_RETURN(engine_, Build());
    return Status::OK();
  }

 private:
  Result<std::unique_ptr<DigestEngine>> Build() {
    Rng rng(5);
    DIGEST_ASSIGN_OR_RETURN(const NodeId querying,
                            data_.graph().RandomLiveNode(rng));
    return DigestEngine::Create(&data_.graph(), &data_.db(), spec_, querying,
                                rng.Fork(), meter(), options_);
  }

  EngineCase case_;
  DriftData data_;
  FaultPlan plan_;
  MessageMeter meter_;
  audit::PrecisionAuditor auditor_;
  PeerHealthMonitor health_;
  ContinuousQuerySpec spec_;
  DigestEngineOptions options_;
  std::unique_ptr<DigestEngine> engine_;
};

/// A DigestNode over DriftData running two AVG queries (ε = 3 and 4).
class NodeSession {
 public:
  explicit NodeSession(bool coalesce) : data_(17) {
    DigestEngineOptions options;
    options.sampling_options.walk_length = 16;
    options.sampling_options.reset_length = 4;
    DigestNodeOptions node_options;
    node_options.coalesce_snapshots = coalesce;
    node_ = DigestNode::Create(&data_.graph(), &data_.db(), /*self=*/5,
                               Rng(29), &meter_, options, node_options)
                .value();
    for (double epsilon : {3.0, 4.0}) {
      (void)node_->IssueQuery(
          ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                      PrecisionSpec{1.0, epsilon, 0.9})
              .value());
    }
  }

  DigestNode& node() { return *node_; }

  Status Run(int ticks) {
    for (int i = 0; i < ticks; ++i) {
      DIGEST_RETURN_IF_ERROR(data_.Advance());
      DIGEST_RETURN_IF_ERROR(node_->Tick(data_.now()).status());
    }
    return Status::OK();
  }

 private:
  DriftData data_;
  MessageMeter meter_;
  std::unique_ptr<DigestNode> node_;
};

}  // namespace ckpt_fixture
}  // namespace digest

#endif  // DIGEST_TESTS_CHECKPOINT_FIXTURE_H_
