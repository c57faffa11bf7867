#!/usr/bin/env python3
"""Render and gate the instrument reports of a traced Digest run.

Reads the JSON Lines trace a `bench_* --trace-jsonl=F` run writes. One
subcommand per instrument, each with its CI gate under --gate:

  audit   the precision-audit SLO table, one row per `audit_slo` event
          (--audit runs). The gate recomputes the coverage floor
          p - 2 * sqrt(p * (1 - p) / occasions) from first principles
          and fails any run below it (zero occasions pass vacuously) or
          whose embedded coverage_floor, coverage_ok or coverage
          disagrees with the recomputed value.
  diag    the mixing table of the four per-walk-batch events
          (walk_mixing, stationary_gap, peer_load, acceptance_rate,
          emitted together once per batch and matched by index) and the
          hot-peer table (--diag runs). The gate fails when more than
          --max-breach-frac of the batches breached the stationary-gap
          threshold.
  health  the per-peer breaker table replayed from peer_suspect and
          breaker_transition events, and the partition-episode table
          (--health runs under faults). The gate fails when the flap
          rate, re-opens per breaker opening (opens + re-opens),
          exceeds --max-flap-rate.

Stdlib only. Exit status: 0 = report rendered (and gate passed, if
requested); 1 = gate breach, malformed trace, diag event streams of
different lengths, or none of the subcommand's events in the trace.
"""

import argparse
import collections
import math
import sys

from trace_schema import load_jsonl_events


def format_table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))
    lines = ["  ".join(h.ljust(widths[c])
                       for c, h in enumerate(headers)).rstrip()]
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[c])
                               for c, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# audit


def coverage_floor(p, occasions):
    """The gate threshold: p minus two binomial standard errors."""
    if occasions == 0:
        return 0.0
    return p - 2.0 * math.sqrt(p * (1.0 - p) / occasions)


def audit_collect(path):
    return load_jsonl_events(path, {"audit_slo"})


def audit_render(events, path):
    print(f"== audit SLO ({len(events)} run(s) in {path}) ==")
    rows = [[slo["label"] or "(unlabelled)", str(slo["occasions"]),
             f"{slo['coverage']:.4f}", f"{slo['coverage_floor']:.4f}",
             "yes" if slo["coverage_ok"] else "NO",
             f"{slo['delta_compliance']:.4f}", f"{slo['budget_burn']:.3f}"]
            for slo in events]
    print(format_table(
        ["run", "occ", "coverage", "floor", "ok", "d-comp", "burn"], rows))


def audit_gate(events, args):
    failures = []
    for slo in events:
        run = f"run '{slo['label']}'"
        occasions = slo["occasions"]
        floor = coverage_floor(slo["p"], occasions)
        passed = occasions == 0 or slo["coverage"] >= floor
        if abs(floor - slo["coverage_floor"]) > 1e-9:
            failures.append(
                f"{run}: embedded coverage_floor "
                f"{slo['coverage_floor']:.6f} != recomputed {floor:.6f}")
        if passed != slo["coverage_ok"]:
            failures.append(
                f"{run}: embedded coverage_ok {slo['coverage_ok']} != "
                f"recomputed {passed}")
        if occasions > 0 and abs(slo["hits"] / occasions -
                                 slo["coverage"]) > 1e-9:
            failures.append(
                f"{run}: coverage {slo['coverage']:.6f} != hits/occasions "
                f"{slo['hits'] / occasions:.6f}")
        if not passed:
            failures.append(
                f"{run}: coverage {slo['coverage']:.4f} below floor "
                f"{floor:.4f} (p={slo['p']}, occasions={occasions})")
    return failures, (f"all {len(events)} run(s) meet "
                      f"coverage >= p - 2*stderr")


# ----------------------------------------------------------------------
# diag

DIAG_EVENTS = ("walk_mixing", "stationary_gap", "peer_load",
               "acceptance_rate")


def diag_collect(path):
    """One (mixing, gap, load, acceptance) tuple per walk batch, matched
    by emission index. Raises ValueError when the streams differ in
    length."""
    streams = {name: [] for name in DIAG_EVENTS}
    for obj in load_jsonl_events(path, set(DIAG_EVENTS)):
        streams[obj["event"]].append(obj)
    lengths = {name: len(events) for name, events in streams.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(
            f"{path}: diagnostic event streams disagree in length "
            f"({lengths}); trace is truncated or interleaved")
    return list(zip(*(streams[name] for name in DIAG_EVENTS)))


def breach_fraction(batches):
    return sum(1 for _, gap, _, _ in batches if gap["breach"]) / len(batches)


def diag_render(batches, path):
    print(f"== sampler diagnostics ({len(batches)} walk batch(es) in "
          f"{path}) ==")
    rows = [[str(i), str(mixing["walks"]), str(mixing["steps"]),
             f"{mixing['lag1_autocorr']:.3f}", f"{mixing['ess']:.1f}",
             f"{mixing['rhat']:.3f}" if mixing["rhat"] > 0 else "-",
             f"{gap['tv_distance']:.4f}", f"{gap['chi_square']:.1f}",
             f"{acc['rate']:.3f}", "BREACH" if gap["breach"] else ""]
            for i, (mixing, gap, _, acc) in enumerate(batches)]
    print(format_table(["batch", "walks", "steps", "lag1", "ess", "rhat",
                        "tv", "chi2", "accept", "breach"], rows))

    print("\n== hot peers ==")
    rows = []
    for i, (_, _, load, _) in enumerate(batches):
        if load["hot"]:
            mean = load["mean_load"]
            ratio = load["max_load"] / mean if mean > 0 else float("inf")
            rows.append([str(i), str(load["peers"]), str(load["links"]),
                         str(load["hot_peer"]), str(load["max_load"]),
                         f"{mean:.2f}", f"{ratio:.2f}x"])
    print(format_table(["batch", "peers", "links", "hot_peer", "max_load",
                        "mean_load", "ratio"], rows) if rows else
          "(no hot peers: every batch's max load stayed under the hot "
          "threshold)")

    breaches = sum(1 for _, gap, _, _ in batches if gap["breach"])
    hot = sum(1 for _, _, load, _ in batches if load["hot"])
    proposals = sum(acc["proposals"] for *_, acc in batches)
    accepted = sum(acc["accepted"] for *_, acc in batches)
    rate = accepted / proposals if proposals > 0 else 0.0
    print(f"\nsummary: {len(batches)} batches, "
          f"{breaches} stationary-gap breach(es) "
          f"({breach_fraction(batches):.1%}), "
          f"{hot} hot batch(es), overall acceptance {rate:.3f} "
          f"({accepted}/{proposals})")


def diag_gate(batches, args):
    frac = breach_fraction(batches)
    if frac > args.max_breach_frac:
        return [f"breach fraction {frac:.1%} exceeds "
                f"{args.max_breach_frac:.1%} — sampler is not mixing "
                f"toward its stationary target"], None
    return [], (f"breach fraction {frac:.1%} within "
                f"{args.max_breach_frac:.1%}")


# ----------------------------------------------------------------------
# health

HEALTH_EVENTS = ("peer_suspect", "breaker_transition", "partition_begin",
                 "partition_end")


def health_collect(path):
    """The four event streams in emission order, or {} when the trace
    has none of them."""
    streams = {name: [] for name in HEALTH_EVENTS}
    for obj in load_jsonl_events(path, set(HEALTH_EVENTS)):
        streams[obj["event"]].append(obj)
    return streams if any(streams.values()) else {}


def per_peer(streams):
    """Folds the suspect/transition streams into one record per peer."""
    peers = collections.defaultdict(lambda: {
        "suspects": 0, "opens": 0, "reopens": 0, "closes": 0,
        "state": "closed", "max_phi": 0.0,
    })
    for e in streams["peer_suspect"]:
        r = peers[e["peer"]]
        r["suspects"] += 1
        r["max_phi"] = max(r["max_phi"], e["phi"])
    for e in streams["breaker_transition"]:
        r = peers[e["peer"]]
        r["max_phi"] = max(r["max_phi"], e["phi"])
        if e["to"] == "open":
            r["reopens" if e["from"] == "half_open" else "opens"] += 1
        elif e["to"] == "closed":
            r["closes"] += 1
        r["state"] = e["to"]
    return peers


def breaker_totals(peers):
    """Opens, re-opens and closes over all peers, and the flap rate:
    re-opens per breaker opening (opens + re-opens)."""
    opens, reopens, closes = (sum(r[k] for r in peers.values())
                              for k in ("opens", "reopens", "closes"))
    flap = reopens / (opens + reopens) if opens + reopens > 0 else 0.0
    return opens, reopens, closes, flap


def health_render(streams, path):
    peers = per_peer(streams)
    total = sum(len(v) for v in streams.values())
    print(f"== peer health ({total} event(s) in {path}) ==")
    rows = [[str(peer), str(r["suspects"]), str(r["opens"]),
             str(r["reopens"]), str(r["closes"]), f"{r['max_phi']:.2f}",
             r["state"] if r["state"] != "closed" else ""]
            for peer, r in sorted(peers.items())]
    print(format_table(["peer", "suspects", "opens", "reopens", "closes",
                        "max_phi", "final"], rows) if rows else
          "(no peer ever crossed the suspect threshold)")

    print("\n== partition episodes ==")
    begun = {e["episode"]: e for e in streams["partition_begin"]}
    ended = {e["episode"] for e in streams["partition_end"]}
    rows = [[str(episode), str(begun[episode]["components"]),
             str(begun[episode]["length"]),
             "yes" if episode in ended else "NO (still split at trace end)"]
            for episode in sorted(begun)]
    print(format_table(["episode", "components", "length", "healed"], rows)
          if rows else "(no partition episodes in this trace)")

    opens, reopens, closes, flap = breaker_totals(peers)
    quarantined = sum(1 for r in peers.values() if r["state"] == "open")
    print(f"\nsummary: {len(peers)} peer(s) tracked, "
          f"{opens} open(s), {reopens} re-open(s), {closes} close(s), "
          f"flap rate {flap:.1%}, {quarantined} still quarantined, "
          f"{len(streams['partition_begin'])} partition episode(s)")


def health_gate(streams, args):
    flap = breaker_totals(per_peer(streams))[3]
    if flap > args.max_flap_rate:
        return [f"flap rate {flap:.1%} exceeds {args.max_flap_rate:.1%} "
                f"— breakers are bouncing between open and half-open "
                f"instead of holding"], None
    return [], f"flap rate {flap:.1%} within {args.max_flap_rate:.1%}"


# ----------------------------------------------------------------------

Report = collections.namedtuple("Report", "collect render gate missing")

REPORTS = {
    "audit": Report(audit_collect, audit_render, audit_gate,
                    "no audit_slo events (was the run started with "
                    "--audit?)"),
    "diag": Report(diag_collect, diag_render, diag_gate,
                   "no sampler-diagnostic events (was the run started "
                   "with --diag?)"),
    "health": Report(health_collect, health_render, health_gate,
                     "no peer-health events (was the run started with "
                     "--health, under faults?)"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    for name in REPORTS:
        sub = commands.add_parser(name, help=f"the {name} report")
        sub.add_argument("--jsonl", required=True,
                         help="JSON Lines trace of the run")
        sub.add_argument("--gate", action="store_true",
                         help="exit 1 when the report's gate fails")
    commands.choices["diag"].add_argument(
        "--max-breach-frac", type=float, default=0.5,
        help="allowed fraction of breached batches (default 0.5)")
    commands.choices["health"].add_argument(
        "--max-flap-rate", type=float, default=0.5,
        help="allowed re-opens per breaker opening (default 0.5)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    report = REPORTS[args.command]
    try:
        data = report.collect(args.jsonl)
    except (OSError, ValueError) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    if not data:
        print(f"FAIL: {args.jsonl}: {report.missing}", file=sys.stderr)
        return 1
    report.render(data, args.jsonl)
    if not args.gate:
        return 0
    failures, ok = report.gate(data, args)
    if failures:
        print(f"\nGATE FAIL ({len(failures)} problem(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\ngate OK: {ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
