"""Shared schema tables for the Digest observability exports.

One source of truth for the constants the tools/ scripts previously
each carried their own copy of: the JSONL/Chrome trace-event schemas
(pinned by src/obs/exporters.cc), the wall-clock profiling section
(src/prof/), and the bench_suite JSON layout (bench/bench_suite.cc,
gated by tools/bench_compare.py). Adding an event to the C++ tracer
means adding its row to EVENT_SCHEMA here — check_trace.py rejects
unknown events, so a missing row fails CI loudly.

Stdlib only; imported by check_trace.py, bench_compare.py, and
digest_report.py (all run as `python3 tools/X.py`, which puts tools/ on
sys.path).
"""

import json

# event name -> required payload fields (beyond seq/t/event).
EVENT_SCHEMA = {
    "run_begin": {"label"},
    "tick": {"snapshot_executed", "degraded", "result_updated", "reported",
             "ci_halfwidth"},
    "gap_predicted": {"gap", "next_tick", "poly_order", "predicted_drift",
                      "strict"},
    "snapshot": {"value", "ci_halfwidth", "total_samples", "fresh_samples",
                 "retained_samples", "degraded"},
    "snapshot_skipped": {"next_snapshot_tick"},
    "sample_budget": {"repeated", "rho_hat", "sigma_hat", "planned_total",
                      "planned_retained"},
    "ci_widened": {"from", "to"},
    "degraded_fallback": {"retained_pool"},
    "walk_batch": {"agents", "warm", "cold_steps", "warm_steps", "budget"},
    "walk_batch_done": {"samples", "attempts", "retries", "losses", "drops",
                        "stalled_steps", "hedges", "hedge_wins"},
    "hop_budget_exhausted": {"attempts", "budget"},
    "agent_restart": {"agent_index"},
    "fault_loss": {"from", "to"},
    "fault_stall": {"stalled_steps"},
    "supervisor_state": {"from", "to", "outcome", "consecutive"},
    "partial_snapshot": {"collected", "planned", "ci_halfwidth"},
    "walk_hedged": {"agent_index", "attempts", "threshold"},
    "checkpoint": {"bytes", "last_tick"},
    "restore": {"bytes", "last_tick"},
    # Multi-query node runtime (src/core/digest_node.cc): >= 2 due
    # queries split one shared walk batch this tick. Unlaned — the
    # shared pool belongs to the node, not to any one tenant.
    "snapshot_coalesced": {"queries", "shared_samples",
                           "consumed_samples"},
    # Precision-audit events (src/audit/, docs/OBSERVABILITY.md "audit").
    "audit_coverage": {"estimate", "truth", "ci_halfwidth", "hit", "cause",
                       "occasions", "misses"},
    "audit_budget": {"burn", "remaining", "occasions", "misses"},
    "audit_drift": {"detector", "ewma", "cusum_pos", "cusum_neg",
                    "threshold", "streak", "flip"},
    "audit_slo": {"label", "p", "epsilon", "delta", "occasions", "hits",
                  "misses", "coverage", "coverage_floor", "coverage_ok",
                  "delta_ticks", "delta_misses", "delta_compliance",
                  "budget_burn", "budget_remaining"},
    # Sampler-introspection events (src/diag/, one set per walk batch;
    # docs/OBSERVABILITY.md "Sampler diagnostics").
    "walk_mixing": {"walks", "steps", "lag1_autocorr", "ess", "rhat"},
    "stationary_gap": {"tv_distance", "chi_square", "live_peers", "visits",
                       "dropped_dead_visits", "breach"},
    "peer_load": {"peers", "links", "hot_peer", "max_load", "mean_load",
                  "hot"},
    "acceptance_rate": {"proposals", "accepted", "rate"},
    # Peer-health events (src/net/peer_health, net/fault_plan partition
    # episodes; docs/OBSERVABILITY.md "Peer health & partitions").
    "peer_suspect": {"peer", "phi", "failures"},
    "breaker_transition": {"peer", "from", "to", "phi"},
    "partition_begin": {"episode", "components", "length"},
    "partition_end": {"episode"},
}

# Walk-scoped events that carry the `lane` field: the walk index the
# sampling operator stamps on per-walk events at merge time, at every
# thread count (DESIGN.md "Parallel execution & determinism model").
# Deterministic — a lane is a walk, never an OS thread.
LANE_EVENTS = {"fault_loss", "agent_restart", "walk_hedged"}

# Engine- and audit-level events that may carry a `lane` field holding a
# QueryId (>= 1) instead of a walk index: a DigestNode hands each tenant
# engine a per-query lane view of the node's tracer
# (obs::LaneTracer), so one trace carries every concurrent query's
# events separably. Shared-operator events (walk_*, diag, health) stay
# unlaned, as does snapshot_coalesced. Absent entirely on single-engine
# traces.
QUERY_LANE_EVENTS = {
    "tick", "snapshot", "snapshot_skipped", "gap_predicted",
    "sample_budget", "partial_snapshot", "ci_widened",
    "degraded_fallback", "supervisor_state", "checkpoint", "restore",
    "audit_coverage", "audit_budget", "audit_drift", "audit_slo",
}

# Events the Chrome exporter renders as slices nested inside tick spans.
NESTED_SLICE_EVENTS = {
    "walk_batch", "walk_batch_done", "hop_budget_exhausted",
    "agent_restart", "fault_loss", "fault_stall", "walk_hedged",
    "walk_mixing", "stationary_gap", "peer_load", "acceptance_rate",
    "peer_suspect", "breaker_transition",
}

TICK_SPAN_US = 1000  # One simulated tick = 1000 us of trace time.

# Wall-clock profiling (src/prof/): phase names are stable API
# (prof::PhaseName), pinned here like the event names above.
PROF_PHASES = {
    "engine_tick", "extrapolator_fit", "extrapolator_predict",
    "estimator_evaluate", "walk_batch", "walk_advance", "fault_draw",
}
PROF_STAT_FIELDS = {"calls", "total_ns", "min_ns", "max_ns", "items"}
WALL_PROCESS_NAME = "wall-clock profiler"

# ----------------------------------------------------------------------
# bench_suite JSON layout (bench/bench_suite.cc, results/README.md).

SUITE_SCHEMA = "digest-bench-suite-v1"

COUNT_FIELDS = ("ticks", "snapshots", "total_samples", "messages",
                "degraded_ticks", "walk_batches", "walk_hops")

# An audited baseline (bench_suite --audit) carries the precision
# auditor's run summary in each scenario's `extra.audit` object; these
# are its deterministic accuracy fields, exact-compared when the
# configs match.
AUDIT_EXACT_FIELDS = ("occasions", "hits", "misses", "delta_ticks",
                      "delta_misses", "coverage", "attribution")

# A diagnosed baseline (bench_suite --diag) carries the sampler
# diagnostics summary in each scenario's `extra.diag` object
# (diag::SamplerDiag::SummaryJson). The deterministic count fields are
# exact-compared; the floating summaries (tv/ess/rhat/...) ride along
# but only the counts gate.
DIAG_EXACT_FIELDS = ("batches", "walks", "steps", "live_visits",
                     "dropped_dead_visits", "proposals", "accepted",
                     "breaches", "hot_batches")

# A health-monitored baseline (bench_suite --health) carries the peer
# health monitor's run summary in each scenario's `extra.health` object
# (PeerHealthMonitor::SummaryJson). The integer counters are
# exact-compared when the configs match; the floating ratios
# (flap_rate, quarantine_fraction) ride along but only the counts gate.
HEALTH_EXACT_FIELDS = ("batches", "breaker_transitions", "closes",
                       "failures", "opens", "outcomes", "peers_tracked",
                       "population", "quarantined", "reopens", "successes",
                       "suspects")

# The parallel-executor scenario additionally commits a speedup curve in
# its `extra` object (BENCH_parallel_rpt_mcmc.json).
PARALLEL_EXTRA_FIELDS = ("threads", "wall_ms", "speedup", "speedup_at_4",
                         "host_cores", "bit_identical_across_counts")

# The partition-recovery scenario (partition_rpt_mcmc) commits the
# quarantine-aware vs breakers-ablated coverage comparison in its
# `extra` object: the robustness headline bench_compare.py gates
# structurally (presence + sane ranges; the strict aware-vs-ablated
# acceptance property is test-enforced at pinned parameters in
# tests/partition_test.cc, not here, to keep arbitrary-scale baselines
# from flaking).
PARTITION_EXTRA_FIELDS = ("coverage_aware", "coverage_ablated",
                          "coverage_floor", "aware_above_floor",
                          "ablated_breached", "breaker_opens",
                          "breaker_reopens", "flap_rate",
                          "degraded_ticks_aware", "degraded_ticks_ablated")

# The multi-query node scenario (multiquery_rpt_mcmc) commits the
# marginal-message-per-added-query curves for both node modes
# (coalesced snapshot scheduling vs the warm-pool-only ablation) in
# its `extra` object. ratio_q8 — the 4->8 marginal of the coalesced
# mode over the ablation's — is the sharing headline, gated at
# MULTIQUERY_MAX_RATIO_Q8; coverage_ok_all asserts every tenant's
# (ε, p) coverage floor held under the shared sample pool (per-query
# auditors over the 8-query coalesced run).
MULTIQUERY_EXTRA_FIELDS = ("queries", "messages_coalesced",
                           "messages_warm_pool", "marginal_coalesced",
                           "marginal_warm_pool", "ratio_q8",
                           "coalesced_ticks_q8", "coverage_ok_all")
MULTIQUERY_MAX_RATIO_Q8 = 0.6


def load_jsonl_events(path, names):
    """Returns the payload objects of the named events in a JSONL trace,
    in emission order. `names` is a set of event names. Raises
    ValueError on malformed JSONL."""
    events = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{line_no}: invalid JSON: {e}")
            if obj.get("event") in names:
                events.append(obj)
    return events
