#!/usr/bin/env python3
"""Paper-scale benchmark of the Digest continuous-query engine.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Builds this directory's CMake package (which compiles the repository's
libraries) into .bench_build/perfbench, runs one workload's sessions for
--seconds, checks the correctness gates, prints every metric by name with
its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exit status: 0 on success, 1 when a correctness gate fails or a session
errs, 2 on a usage or build error. README.md in this directory defines
every workload and metric.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "digest_perfbench"

sys.path.insert(0, str(HERE))
import stats  # noqa: E402

WORKLOADS = ("temp_digest", "node_8q")
DEFAULT_SEED = 1

END_TO_END = (
    ("answers_per_s", "1/s"),
    ("occasion_us_p50", "us"),
    ("occasion_us_tail", "us"),
    ("msgs_per_answer", "count"),
    ("samples_per_answer", "count"),
    ("hit_frac", "fraction"),
    ("undegraded_frac", "fraction"),
    ("setup_s", "s"),
    ("setup_heap_mb", "MB"),
)

PER_LAYER = (
    ("workload.generate_ms", "ms"),
    ("workload.advance_us_per_tick", "us"),
    ("workload.oracle_us_per_tick", "us"),
    ("engine.create_us", "us"),
    ("engine.tick_us", "us"),
    ("engine.self_us_per_tick", "us"),
    ("engine.snapshot_frac", "fraction"),
    ("extrapolator.us_per_occasion", "us"),
    ("estimator.self_us_per_occasion", "us"),
    ("estimator.fresh_per_occasion", "count"),
    ("estimator.retained_per_occasion", "count"),
    ("node.self_us_per_tick", "us"),
    ("node.coalesced_tick_frac", "fraction"),
    ("node.walk_batches_per_tick", "count"),
    ("sampling.ns_per_hop", "ns"),
    ("sampling.hops_per_answer", "count"),
    ("sampling.walk_share", "fraction"),
    ("sampling.batch_self_us", "us"),
    ("net.hops_per_answer", "count"),
    ("net.probes_per_answer", "count"),
    ("net.transfers_per_answer", "count"),
    ("net.refreshes_per_answer", "count"),
    ("instruments.overhead_x", "ratio"),
    ("instruments.batch_self_us", "us"),
    ("audit.record_truth_us", "us"),
    ("trace.overhead_x", "ratio"),
    ("trace.residual_us_per_tick", "us"),
    ("occasions.tail_pct", "%"),
    ("occasions.per_session", "count"),
    ("session.heap_mb", "MB"),
)

# MessageMeter categories the net.* metrics split msgs_per_answer into.
NET_CATEGORIES = ("hops", "probes", "transfers", "refreshes")


class GateFailure(Exception):
    pass


def die(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the session driver; output goes to
    stderr so stdout stays the benchmark's own."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(2, f"no repository sources next to {HERE.name}/ (need "
               "CMakeLists.txt and src/ in its parent); nothing to build")
    if shutil.which("cmake") is None:
        die(2, "cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die(2, "cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", str(BUILD), "--target",
                   "digest_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        die(2, "build failed")


def run_sessions(workload, seed, seconds, trace):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}-seed{seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        die(1, f"{workload}: session driver exited {proc.returncode}")
    return json.loads(proc.stdout)


def of_kind(doc, kind):
    return [s for s in doc["sessions"] if s["kind"] == kind]


def answers(session):
    return session["ticks"] * session["queries"]


def best_ticks(sessions):
    """Per tick, the fastest SUT time over same-seed sessions, which do the
    same work tick by tick (a gate checks it)."""
    return stats.best_per_index([s["tick_ns"] for s in sessions])


def occasion_ns(tick_ns, session):
    """The entries of `tick_ns` at ticks that ran a sampling occasion."""
    return [ns for ns, flag in zip(tick_ns, session["occasions"])
            if flag == "1"]


def best_sut_ns(sessions):
    """SUT time of a session made of the fastest run of every tick."""
    return sum(best_ticks(sessions))


def check_gates(doc, trace):
    """Raises GateFailure on the first broken correctness gate."""
    same_seed = [s for s in doc["sessions"]
                 if s["kind"] in ("measured", "traced", "instrumented")]
    first = same_seed[0]
    for s in same_seed[1:]:
        if (s["counts"] != first["counts"] or s["prefix"] != first["prefix"]
                or s["occasions"] != first["occasions"]):
            diff = sorted(k for k in first["counts"]
                          if s["counts"][k] != first["counts"][k])
            diff = diff or ["prefix or occasion ticks"]
            raise GateFailure(
                f"a {s['kind']} session under seed {s['seed']} differs from "
                f"the first {first['kind']} session in {diff}: "
                "counts must repeat exactly for one seed, with or without "
                "tracing and instruments")
    probe = of_kind(doc, "probe")[0]
    if probe["prefix"] == first["prefix"]:
        raise GateFailure(
            f"seeds {probe['seed']} and {first['seed']} gave identical counts "
            "and answers: the seed does not reach the generators")
    for s in doc["sessions"]:
        c = s["counts"]
        if c["nonfinite"]:
            raise GateFailure(f"{c['nonfinite']} non-finite answers in a "
                              f"{s['kind']} session")
        split = (c["hops"] + c["probes"] + c["transfers"] + c["refreshes"] +
                 c["retries"] + c["restarts"] + c["hedge_launches"] +
                 c["hedged_duplicates"])
        if split != c["messages"]:
            raise GateFailure(f"message categories sum to {split}, the "
                              f"meter total is {c['messages']}")
        if s["queries"] > 1 and c["cost_share_sum"] != c["messages"]:
            raise GateFailure(
                f"per-query QueryCost shares sum to {c['cost_share_sum']}, "
                f"the node meter counts {c['messages']}")
    for kind in ("traced", "instrumented"):
        if not of_kind(doc, kind):
            continue
        layers, residual = self_times(of_kind(doc, kind))
        negative = [k for k, v in layers.items() if v < 0]
        if negative or residual < 0:
            raise GateFailure(
                f"self-time accounting of the {kind} sessions does not "
                f"nest: negative {negative}, residual {residual} ns")


def end_to_end(doc):
    measured = of_kind(doc, "measured")
    counts = measured[0]["counts"]
    n = answers(measured[0])
    best = best_ticks(measured)
    occasions = occasion_ns(best, measured[0])
    tail = stats.tail(occasions)
    metrics = {
        "answers_per_s": stats.rate_per_s(n, sum(best)),
        "occasion_us_p50": stats.median(occasions) / 1e3,
        "occasion_us_tail": tail[0] / 1e3,
        "msgs_per_answer": counts["messages"] / n,
        "samples_per_answer": counts["total_samples"] / n,
        "hit_frac": counts["hits"] / n,
        "undegraded_frac": 1.0 - counts["degraded_answers"] / n,
        "setup_s": min((s["generate_ns"] + s["create_ns"]) / 1e9
                       for s in of_kind(doc, "setup")),
        "setup_heap_mb": stats.median(
            [s["heap_bytes"] / 2**20 for s in of_kind(doc, "setup")]),
    }
    return metrics, tail[1:]


def self_times(traced):
    """Self time of each layer inside the SUT call, in ns summed over the
    traced sessions, and the residual: SUT span time the layers leave
    unaccounted. Nesting: Tick > engine_tick > {extrapolator, estimator
    > walk batch > walk stepping > fault draws}."""
    def ph(name):
        return sum(s["phases"][name]["total_ns"] for s in traced)

    tick, evaluate = ph("engine_tick"), ph("estimator_evaluate")
    fit, predict = ph("extrapolator_fit"), ph("extrapolator_predict")
    batch, step, fault = ph("walk_batch"), ph("walk_advance"), ph("fault_draw")
    layers = {
        "engine": tick - evaluate - fit - predict,
        "extrapolator": fit + predict,
        "estimator": evaluate - batch,
        "sampling.batch": batch - step,
        "sampling.step": step - fault,
        "sampling.fault_draw": fault,
    }
    sut = sum(s["sut_ns"] for s in traced)
    if traced[0]["queries"] > 1:
        layers["node"] = sut - tick
    return layers, sut - sum(layers.values())


def per_layer(doc, tail):
    traced = of_kind(doc, "traced")
    measured = of_kind(doc, "measured")
    instrumented = of_kind(doc, "instrumented")

    def total(key):
        return sum(s[key] for s in traced)

    def count(key):
        return sum(s["counts"][key] for s in traced)

    def ph(name, field="total_ns"):
        return sum(s["phases"][name][field] for s in traced)

    ticks = total("ticks")
    n = sum(answers(s) for s in traced)
    occasions = count("snapshots")
    engine_ticks = ph("engine_tick", "calls")
    layers, residual = self_times(traced)
    measured_ns = best_sut_ns(measured)
    hops = ph("walk_advance", "items")
    metrics = {
        "workload.generate_ms": stats.median(
            [s["generate_ns"] / 1e6 for s in traced]),
        "workload.advance_us_per_tick": total("advance_ns") / ticks / 1e3,
        "workload.oracle_us_per_tick": total("oracle_ns") / ticks / 1e3,
        "engine.create_us": stats.median(
            [s["create_ns"] / 1e3 for s in traced]),
        "engine.tick_us": stats.per(ph("engine_tick"), engine_ticks) / 1e3,
        "engine.self_us_per_tick":
            stats.per(layers["engine"], engine_ticks) / 1e3,
        "engine.snapshot_frac": occasions / n,
        "extrapolator.us_per_occasion":
            stats.per(layers["extrapolator"], occasions) / 1e3,
        "estimator.self_us_per_occasion":
            stats.per(layers["estimator"], occasions) / 1e3,
        "estimator.fresh_per_occasion":
            stats.per(count("fresh_samples"), occasions),
        "estimator.retained_per_occasion":
            stats.per(count("retained_samples"), occasions),
        "node.self_us_per_tick": layers.get("node", 0) / ticks / 1e3,
        "node.coalesced_tick_frac": count("coalesced_ticks") / ticks,
        "node.walk_batches_per_tick": ph("walk_batch", "calls") / ticks,
        "sampling.ns_per_hop": stats.per(ph("walk_advance"), hops),
        "sampling.hops_per_answer": hops / n,
        "sampling.walk_share": stats.per(ph("walk_advance"),
                                         ph("engine_tick")),
        "sampling.batch_self_us":
            stats.per(layers["sampling.batch"],
                      ph("walk_batch", "calls")) / 1e3,
        "trace.overhead_x": best_sut_ns(traced) / measured_ns,
        "trace.residual_us_per_tick": residual / ticks / 1e3,
        "occasions.tail_pct": tail[0],
        "occasions.per_session": tail[1],
        "session.heap_mb": stats.median(
            [s["heap_bytes"] / 2**20 for s in measured]),
    }
    for category in NET_CATEGORIES:
        metrics[f"net.{category}_per_answer"] = count(category) / n
    metrics.update(instrument_layers(instrumented, traced))
    return metrics


def instrument_layers(instrumented, traced):
    """The instruments' cost, from instrumented sessions set against the
    bare traced ones (both carry the profiler); 0 on workloads that run
    no instrumented sessions."""
    if not instrumented:
        return {"instruments.overhead_x": 0.0,
                "instruments.batch_self_us": 0.0,
                "audit.record_truth_us": 0.0}
    layers, _ = self_times(instrumented)
    batches = sum(s["phases"]["walk_batch"]["calls"] for s in instrumented)
    ticks = sum(s["ticks"] for s in instrumented)
    return {
        "instruments.overhead_x":
            best_sut_ns(instrumented) / best_sut_ns(traced),
        "instruments.batch_self_us":
            stats.per(layers["sampling.batch"], batches) / 1e3,
        "audit.record_truth_us":
            sum(s["truth_ns"] for s in instrumented) / ticks / 1e3,
    }


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (correct, attempted, failed, metrics)."""
    doc = run_sessions(workload, seed, seconds, trace)
    correct = True
    try:
        check_gates(doc, trace)
    except GateFailure as failure:
        print(f"perfbench: {workload}: correctness gate failed: {failure}",
              file=sys.stderr)
        correct = False
    e2e, tail = end_to_end(doc)
    if trace:
        values, units = per_layer(doc, tail), dict(PER_LAYER)
    else:
        values, units = e2e, dict(END_TO_END)
    assert set(values) == set(units), set(values) ^ set(units)
    measured = [s for s in doc["sessions"]
                if s["kind"] in ("measured", "traced", "instrumented")]
    attempted = sum(answers(s) for s in measured)
    failed = sum(s["counts"]["nonfinite"] for s in measured)
    sut_ms = [s["sut_ns"] / 1e6 for s in of_kind(doc, "measured")]
    q1, q2, q3 = stats.quartiles(sut_ms)
    print(f"# {workload} seed={seed}: occasion_us_tail is p{tail[0]:.2f} of "
          f"{tail[1]} occasions per session; session SUT ms quartiles "
          f"{q1:.1f} / {q2:.1f} / {q3:.1f} over {len(sut_ms)} sessions "
          f"(IQR {stats.iqr_share(sut_ms):.3f} of the median)")
    metrics = {}
    for name, unit in (PER_LAYER if trace else END_TO_END):
        print(f"{workload:26s} {name:36s} {values[name]:14.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default 1; 20080407 is held "
                             "out for validating claims)")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        die(2, "--seed must be >= 0 and --seconds in (0, 120]")
    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        ok, att, fail, m = run_workload(workload, args.seed, args.seconds,
                                        args.trace)
        correct, attempted, failed = correct and ok, attempted + att, \
            failed + fail
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({f"{workload}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
