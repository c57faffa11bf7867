#ifndef DIGEST_CORE_QUERY_SCHEDULER_H_
#define DIGEST_CORE_QUERY_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/result.h"
#include "sampling/tuple_sampler.h"

namespace digest {

/// Identifier of a continuous query registered at a DigestNode.
using QueryId = uint64_t;

/// Tick-scoped shared sample pool: the interposition point that turns N
/// same-tick snapshot occasions into one walk batch (§III's one sampling
/// operator per peer, amortized BlinkDB-style across its tenants).
///
/// Every engine at the node draws through this source. Within one tick
/// the pool grows monotonically: the first consumer's draw fills it via
/// the shared two-stage sampler, and later consumers re-read the cached
/// prefix before extending it. Per-query cursors keep each query's draws
/// *within* a tick contiguous and disjoint — a pilot draw plus top-up by
/// the same estimator never sees a sample twice — while different
/// queries deliberately share prefixes: samples are uniform with
/// replacement, so one batch is as good as another regardless of which
/// query triggered it, and the overlap is exactly the message saving.
///
/// Determinism: the node ticks engines in a fixed plan order and selects
/// the active cursor before each engine runs, so the shared sampler's
/// RNG stream advances in a schedule-independent sequence. BeginTick
/// clears the pool — checkpoints cut at tick boundaries carry no pool
/// state, only the sampler's RNG position.
///
/// The pool holds borrowed samples (TupleSample): every tenant reads the
/// same stored tuples, and no tuple is copied per tenant. They stay
/// valid for the whole tick, since nothing the node runs can change the
/// database; BeginTick drops them before the next tick reads anything.
///
/// An extension the hop budget cuts keeps what it delivered: those
/// samples were walked and charged, so they join the pool and the
/// active cursor gets them with timed_out set. Later tenants read them
/// like any other prefix and walk only past it.
class CoalescingSampleSource : public SampleSource {
 public:
  /// `sampler` is the node's shared two-stage sampler (not owned; must
  /// outlive this source).
  explicit CoalescingSampleSource(TwoStageTupleSampler* sampler)
      : sampler_(sampler) {}

  /// Opens a new tick: drops the previous tick's pool and all cursors.
  void BeginTick();

  /// Selects which query's cursor subsequent draws consume through.
  /// The node calls this immediately before ticking each engine.
  void SetActiveQuery(QueryId id) { active_ = id; }

  /// Pool size after the tick's draws so far.
  size_t shared_samples() const { return pool_.size(); }

  /// Total samples handed out across all cursors this tick (>= pool
  /// size whenever prefixes overlapped across queries).
  size_t consumed_samples() const;

  /// Cursors touched since BeginTick — the tick's consumer count.
  size_t queries_served() const { return cursors_.size(); }

  /// Serves `n` samples from the active cursor, extending the pool
  /// through the shared sampler when it is short. A cut extension
  /// delivers fewer (timed_out = true).
  Result<PartialTupleBatch> DrawFresh(NodeId origin, size_t n) override;

 private:
  TwoStageTupleSampler* sampler_;
  std::vector<TupleSample> pool_;
  std::map<QueryId, size_t> cursors_;
  QueryId active_ = 0;
};

/// Cumulative per-query attribution, reconciling the node's single
/// MessageMeter back into per-tenant shares.
struct QueryCost {
  double epsilon = 0.0;      ///< The query's contracted half-width.
  uint64_t ticks = 0;        ///< Engine ticks run for this query.
  uint64_t snapshots = 0;    ///< Sampling occasions opened.
  uint64_t coalesced = 0;    ///< Occasions served from a shared batch.
  uint64_t messages = 0;     ///< Meter delta attributed to this query.

  /// Checkpoint field list (common/checkpoint_codec.h).
  template <class V>
  void Fields(V& v) {
    v("epsilon", epsilon);
    v("ticks", ticks);
    v("snapshots", snapshots);
    v("coalesced", coalesced);
    v("messages", messages);
  }
};

/// Orders and accounts the node's tick work. Scheduling policy: due
/// queries run tightest-ε first (ties by QueryId) so the shared pool is
/// sized by the most demanding tenant and everyone else re-reads its
/// prefix; idle queries tick afterwards in id order. Pure bookkeeping —
/// the engines own all estimation state.
class QueryScheduler {
 public:
  /// One tick's execution order.
  struct TickPlan {
    std::vector<QueryId> due;   ///< Sampling occasions, by (ε, id).
    std::vector<QueryId> idle;  ///< Everyone else, by id.
  };

  /// The scheduler's cumulative state, which is also the node
  /// checkpoint's "scheduler" section.
  struct Ledger {
    uint64_t coalesced_ticks = 0;
    std::map<QueryId, QueryCost> costs;

    /// Checkpoint field list (common/checkpoint_codec.h).
    template <class V>
    void Fields(V& v) {
      v("coalesced_ticks", coalesced_ticks);
      v("costs", costs);
    }
  };

  /// Registers a query (fails on duplicate id).
  Status Register(QueryId id, double epsilon);

  /// Forgets a query; its cumulative costs drop with it.
  void Unregister(QueryId id) { ledger_.costs.erase(id); }

  bool Contains(QueryId id) const { return ledger_.costs.count(id) != 0; }
  size_t active() const { return ledger_.costs.size(); }

  /// Splits the registered queries into due/idle for this tick.
  /// `would_snapshot(id)` is the engine's occasion peek.
  TickPlan Plan(const std::function<bool(QueryId)>& would_snapshot) const;

  /// Folds one engine tick's outcome into the query's attribution.
  void RecordTick(QueryId id, uint64_t meter_delta, bool snapshot,
                  bool coalesced);

  /// Attribution for `id`, or null when unregistered.
  const QueryCost* Cost(QueryId id) const;

  /// All registered queries' attribution, keyed by id.
  const std::map<QueryId, QueryCost>& costs() const { return ledger_.costs; }

  /// Ticks on which >= 2 due queries shared one walk batch.
  uint64_t coalesced_ticks() const { return ledger_.coalesced_ticks; }
  void NoteCoalescedTick() { ++ledger_.coalesced_ticks; }

  Ledger SaveState() const { return ledger_; }
  /// Installs a checkpointed ledger, epsilons included.
  void RestoreState(const Ledger& ledger) { ledger_ = ledger; }

 private:
  Ledger ledger_;
};

}  // namespace digest

#endif  // DIGEST_CORE_QUERY_SCHEDULER_H_
