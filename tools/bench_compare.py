#!/usr/bin/env python3
"""Compare a bench_suite run against a baseline and gate on regressions.

Both inputs are BENCH_SUITE.json files written by `bench_suite`
(schema digest-bench-suite-v1; see results/README.md). Two kinds of
check, in decreasing strictness:

  * Work counts (ticks, snapshots, samples, messages, walk batches/hops,
    degraded ticks) are deterministic per (seed, scale, quick): they
    must match the baseline EXACTLY when the configs match. A count
    mismatch means the engine now does different work — a behavioral
    change, flagged regardless of timing. If the configs differ (e.g. a
    --quick run against a full-scale baseline), counts are skipped with
    a note.

  * Wall-clock medians are compared with a noise-aware threshold: a
    scenario regresses when

        current_median > baseline_median * max_slowdown + noise

    with noise = mad_k * max(baseline_mad, current_mad, abs_floor_ms).
    MAD is the suite's per-run dispersion estimate; the absolute floor
    keeps microsecond-scale scenarios from tripping on scheduler jitter.
    Timing checks can be disabled wholesale with --ignore-timing (for
    cross-machine comparisons where only the counts are meaningful).

When the baseline was produced with --audit, each scenario's
extra.audit precision ledger is gated too: coverage_ok must not flip
from true to false, and the deterministic accuracy fields
(occasions/hits/misses/coverage/attribution/...) must match exactly
when the configs match. See docs/OBSERVABILITY.md "Precision audit".

Exit status 0 iff no regression. Stdlib only.

Typical use:

    ./build/bench/bench_suite --quick --out-dir=/tmp/bench
    python3 tools/bench_compare.py --baseline BENCH_SUITE.json \
        --current /tmp/bench/BENCH_SUITE.json

Refresh the committed baseline by re-running bench_suite with the
baseline's own config (see results/README.md) and committing the
resulting JSON.
"""

import argparse
import json
import sys

# Schema tables shared with check_trace.py / digest_report.py live in
# trace_schema.py — one source of truth for the bench_suite JSON layout
# this script gates.
#
# Audit gate: a scenario whose baseline met its coverage floor
# (coverage_ok true) must still meet it — a flip to false is an
# accuracy regression, flagged even when the configs differ; when the
# configs match, AUDIT_EXACT_FIELDS must match the baseline EXACTLY,
# same rationale as the work counts. Diag gate: same exact-match rule
# for DIAG_EXACT_FIELDS (the deterministic walk/visit/breach counts).
# Health gate: same exact-match rule for HEALTH_EXACT_FIELDS (the
# deterministic breaker/quarantine counters of a --health baseline),
# plus a structural check of the partition-recovery scenario's
# aware-vs-ablated coverage headline (PARTITION_EXTRA_FIELDS).
#
# Parallel scenario: PARALLEL_EXTRA_FIELDS are schema-checked, and the
# in-suite cross-thread-count determinism verdict is a hard gate: a run
# that was not bit-identical across 1/2/4/8 threads fails the
# comparison no matter how fast it was.
from trace_schema import (AUDIT_EXACT_FIELDS, COUNT_FIELDS,
                          DIAG_EXACT_FIELDS, HEALTH_EXACT_FIELDS,
                          MULTIQUERY_EXTRA_FIELDS, MULTIQUERY_MAX_RATIO_Q8,
                          PARALLEL_EXTRA_FIELDS, PARTITION_EXTRA_FIELDS,
                          SUITE_SCHEMA)


def check_parallel_extra(name, scenario, failures):
    extra = scenario.get("extra")
    if not isinstance(extra, dict):
        failures.append(f"{name}: missing 'extra' speedup-curve object")
        return
    for field in PARALLEL_EXTRA_FIELDS:
        if field not in extra:
            failures.append(f"{name}: extra missing '{field}'")
    if extra.get("bit_identical_across_counts") is not True:
        failures.append(f"{name}: run was NOT bit-identical across thread "
                        f"counts")
    threads = extra.get("threads")
    curve = extra.get("speedup")
    if isinstance(threads, list) and isinstance(curve, list) and \
            len(threads) != len(curve):
        failures.append(f"{name}: speedup curve length {len(curve)} != "
                        f"thread count list length {len(threads)}")


def extra_section(name, scenario, key, side, failures):
    """Returns scenario.extra[key] as a dict, or None with one clear
    failure line when the section is absent or malformed — never a
    KeyError traceback."""
    extra = scenario.get("extra")
    if not isinstance(extra, dict) or key not in extra:
        flag = {"audit": "--audit", "diag": "--diag",
                "health": "--health"}.get(key, f"--{key}")
        failures.append(
            f"{name}: {side} run has no extra.{key} section (was "
            f"bench_suite run with {flag}?)")
        return None
    section = extra[key]
    if not isinstance(section, dict):
        failures.append(f"{name}: {side} extra.{key} is not an object")
        return None
    return section


def check_audit_extra(name, base_scenario, cur_scenario, counts_comparable,
                      failures):
    base_audit = extra_section(name, base_scenario, "audit", "baseline",
                               failures)
    cur_audit = extra_section(name, cur_scenario, "audit", "current",
                              failures)
    if base_audit is None or cur_audit is None:
        return
    if base_audit.get("coverage_ok") is True and \
            cur_audit.get("coverage_ok") is not True:
        failures.append(
            f"{name}: coverage_ok flipped true -> false (coverage "
            f"{cur_audit.get('coverage')} vs floor "
            f"{cur_audit.get('coverage_floor')}) — accuracy regression")
    if counts_comparable:
        for field in AUDIT_EXACT_FIELDS:
            bv = base_audit.get(field)
            cv = cur_audit.get(field)
            if bv != cv:
                failures.append(
                    f"{name}: audit '{field}' changed {bv} -> {cv} "
                    f"(deterministic accuracy ledger differs)")


def check_diag_extra(name, base_scenario, cur_scenario, counts_comparable,
                     failures):
    base_diag = extra_section(name, base_scenario, "diag", "baseline",
                              failures)
    cur_diag = extra_section(name, cur_scenario, "diag", "current",
                             failures)
    if base_diag is None or cur_diag is None or not counts_comparable:
        return
    for field in DIAG_EXACT_FIELDS:
        bv = base_diag.get(field)
        cv = cur_diag.get(field)
        if bv != cv:
            failures.append(
                f"{name}: diag '{field}' changed {bv} -> {cv} "
                f"(deterministic sampler diagnostics differ)")


def check_health_extra(name, base_scenario, cur_scenario, counts_comparable,
                       failures):
    base_health = extra_section(name, base_scenario, "health", "baseline",
                                failures)
    cur_health = extra_section(name, cur_scenario, "health", "current",
                               failures)
    if base_health is None or cur_health is None or not counts_comparable:
        return
    for field in HEALTH_EXACT_FIELDS:
        bv = base_health.get(field)
        cv = cur_health.get(field)
        if bv != cv:
            failures.append(
                f"{name}: health '{field}' changed {bv} -> {cv} "
                f"(deterministic peer-health counters differ)")


def check_partition_extra(name, scenario, failures):
    """Structural gate on the partition-recovery scenario's headline:
    the aware-vs-ablated coverage comparison must be present with sane
    values, and the quarantine-aware run must not flap. The strict
    acceptance property (aware above the binomial floor, ablated
    breaching it) is enforced at pinned parameters by
    tests/partition_test.cc — not re-gated here, where scale/seed are
    arbitrary."""
    extra = scenario.get("extra")
    if not isinstance(extra, dict):
        failures.append(f"{name}: missing 'extra' partition-recovery object")
        return
    for field in PARTITION_EXTRA_FIELDS:
        if field not in extra:
            failures.append(f"{name}: extra missing '{field}'")
    for field in ("coverage_aware", "coverage_ablated", "coverage_floor",
                  "flap_rate"):
        v = extra.get(field)
        if isinstance(v, (int, float)) and not 0.0 <= v <= 1.0:
            failures.append(f"{name}: extra '{field}' = {v} outside [0, 1]")
    flap = extra.get("flap_rate")
    if isinstance(flap, (int, float)) and flap > 0.5:
        failures.append(
            f"{name}: flap_rate {flap} exceeds 0.5 — breakers bouncing "
            f"between open and half-open instead of holding")


def check_multiquery_extra(name, scenario, failures):
    """Gate on the multi-query node scenario's sharing headline: the
    marginal message cost of the 8th concurrent query under coalesced
    snapshot scheduling must stay at or below MULTIQUERY_MAX_RATIO_Q8
    of the warm-pool-only ablation's marginal cost, and every tenant's
    (ε, p) coverage floor must have held under the shared sample pool.
    Both are deterministic per (seed, scale), so they gate on the
    current run alone — no baseline comparison needed."""
    extra = scenario.get("extra")
    if not isinstance(extra, dict):
        failures.append(f"{name}: missing 'extra' multi-query object")
        return
    for field in MULTIQUERY_EXTRA_FIELDS:
        if field not in extra:
            failures.append(f"{name}: extra missing '{field}'")
    ratio = extra.get("ratio_q8")
    if isinstance(ratio, (int, float)):
        if not 0.0 <= ratio <= MULTIQUERY_MAX_RATIO_Q8:
            failures.append(
                f"{name}: ratio_q8 {ratio} outside "
                f"[0, {MULTIQUERY_MAX_RATIO_Q8}] — the 8th query's "
                f"marginal cost under coalescing is no longer well "
                f"below the warm-pool ablation's")
    else:
        failures.append(f"{name}: extra 'ratio_q8' is not a number")
    if extra.get("coverage_ok_all") is not True:
        failures.append(
            f"{name}: coverage_ok_all is not true — some tenant's "
            f"(ε, p) coverage floor broke under the shared sample pool")
    for key in ("marginal_coalesced", "marginal_warm_pool"):
        curve = extra.get(key)
        queries = extra.get("queries")
        if isinstance(curve, list) and isinstance(queries, list) and \
                len(curve) != len(queries) - 1:
            failures.append(
                f"{name}: {key} length {len(curve)} != "
                f"{len(queries) - 1} marginal steps")


def load_suite(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SUITE_SCHEMA:
        raise SystemExit(f"{path}: schema {doc.get('schema')!r} is not "
                         f"{SUITE_SCHEMA!r}")
    if "scenarios" not in doc or not isinstance(doc["scenarios"], dict):
        raise SystemExit(f"{path}: missing scenarios object")
    return doc


def configs_comparable(base, cur):
    """Counts are only exact-comparable when the workload is identical."""
    bk, ck = base.get("config", {}), cur.get("config", {})
    return all(bk.get(k) == ck.get(k) for k in ("scale", "seed", "quick"))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="baseline BENCH_SUITE.json")
    parser.add_argument("--current", required=True,
                        help="candidate BENCH_SUITE.json")
    parser.add_argument("--max-slowdown", type=float, default=1.5,
                        help="allowed median wall-time ratio before noise "
                             "(default 1.5; use a larger value across "
                             "machines)")
    parser.add_argument("--mad-k", type=float, default=6.0,
                        help="noise multiplier on the larger MAD "
                             "(default 6)")
    parser.add_argument("--abs-floor-ms", type=float, default=0.5,
                        help="minimum noise term in ms (default 0.5)")
    parser.add_argument("--ignore-timing", action="store_true",
                        help="check only the deterministic work counts")
    args = parser.parse_args()

    base = load_suite(args.baseline)
    cur = load_suite(args.current)
    counts_comparable = configs_comparable(base, cur)
    if not counts_comparable:
        print("note: baseline and current configs differ "
              f"({base.get('config')} vs {cur.get('config')}); "
              "skipping exact count comparison")

    failures = []
    rows = []
    for name, b in sorted(base["scenarios"].items()):
        c = cur["scenarios"].get(name)
        if c is None:
            failures.append(f"{name}: missing from current run")
            continue

        if counts_comparable:
            for field in COUNT_FIELDS:
                bv = b.get("counts", {}).get(field)
                cv = c.get("counts", {}).get(field)
                if bv != cv:
                    failures.append(
                        f"{name}: count '{field}' changed "
                        f"{bv} -> {cv} (deterministic work differs)")

        if isinstance(b.get("extra"), dict) and "audit" in b["extra"]:
            check_audit_extra(name, b, c, counts_comparable, failures)

        if isinstance(b.get("extra"), dict) and "diag" in b["extra"]:
            check_diag_extra(name, b, c, counts_comparable, failures)

        if isinstance(b.get("extra"), dict) and "health" in b["extra"]:
            check_health_extra(name, b, c, counts_comparable, failures)

        if isinstance(b.get("extra"), dict) and \
                "coverage_aware" in b["extra"]:
            check_partition_extra(name, c, failures)

        if isinstance(b.get("extra"), dict) and "ratio_q8" in b["extra"]:
            check_multiquery_extra(name, c, failures)
            cx = c.get("extra", {})
            if isinstance(cx, dict) and "ratio_q8" in cx:
                print(f"note: {name} ratio_q8 = {cx['ratio_q8']} "
                      f"(baseline {b['extra'].get('ratio_q8')}; "
                      f"gate <= {MULTIQUERY_MAX_RATIO_Q8})")

        if isinstance(b.get("extra"), dict) and \
                "bit_identical_across_counts" in b["extra"]:
            check_parallel_extra(name, c, failures)
            cx = c.get("extra", {})
            if isinstance(cx, dict) and "speedup_at_4" in cx:
                print(f"note: {name} speedup@4 = {cx['speedup_at_4']} "
                      f"(host_cores={cx.get('host_cores')}; baseline "
                      f"{b['extra'].get('speedup_at_4')} on "
                      f"{b['extra'].get('host_cores')} cores)")

        b_med = b["wall_ms"]["median"]
        c_med = c["wall_ms"]["median"]
        noise = args.mad_k * max(b["wall_ms"]["mad"], c["wall_ms"]["mad"],
                                 args.abs_floor_ms)
        limit = b_med * args.max_slowdown + noise
        ratio = c_med / b_med if b_med > 0 else float("inf")
        verdict = "ok"
        if not args.ignore_timing and c_med > limit:
            verdict = "REGRESSED"
            failures.append(
                f"{name}: median {c_med:.3f} ms vs baseline "
                f"{b_med:.3f} ms (ratio {ratio:.2f}x, limit "
                f"{limit:.3f} ms = {args.max_slowdown}x + noise "
                f"{noise:.3f} ms)")
        rows.append((name, b_med, c_med, ratio, limit, verdict))

    extra = sorted(set(cur["scenarios"]) - set(base["scenarios"]))
    if extra:
        print(f"note: scenarios not in baseline (unchecked): "
              f"{', '.join(extra)}")

    if rows:
        width = max(len(r[0]) for r in rows)
        print(f"{'scenario':<{width}}  {'base ms':>10}  {'cur ms':>10}  "
              f"{'ratio':>7}  {'limit ms':>10}  verdict")
        for name, b_med, c_med, ratio, limit, verdict in rows:
            print(f"{name:<{width}}  {b_med:>10.3f}  {c_med:>10.3f}  "
                  f"{ratio:>6.2f}x  {limit:>10.3f}  {verdict}")

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    checked = "counts+timing" if counts_comparable else "timing"
    if args.ignore_timing:
        checked = "counts" if counts_comparable else "nothing"
    print(f"\nOK: {len(rows)} scenario(s) within thresholds ({checked} "
          f"checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
