"""Unit tests for the digest_report.py gates, on small synthetic traces.

Run from the repository root:

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import tempfile
import unittest

import digest_report


def slo_event(hits, occasions, p, **overrides):
    """An audit_slo event whose embedded floor and verdict are the ones
    the gate recomputes, unless overridden."""
    floor = digest_report.coverage_floor(p, occasions)
    coverage = hits / occasions
    event = {
        "seq": 0, "t": 0, "event": "audit_slo", "label": "run",
        "p": p, "epsilon": 1.0, "delta": 0.5, "occasions": occasions,
        "hits": hits, "misses": occasions - hits, "coverage": coverage,
        "coverage_floor": floor, "coverage_ok": coverage >= floor,
        "delta_ticks": 0, "delta_misses": 0, "delta_compliance": 1.0,
        "budget_burn": 0.0, "budget_remaining": 1.0,
    }
    event.update(overrides)
    return event


def diag_batch(breach):
    """The four per-batch diagnostic events of one walk batch."""
    return [
        {"event": "walk_mixing", "walks": 4, "steps": 40,
         "lag1_autocorr": 0.5, "ess": 10.0, "rhat": 1.01},
        {"event": "stationary_gap", "tv_distance": 0.3, "chi_square": 12.0,
         "live_peers": 30, "visits": 160, "dropped_dead_visits": 0,
         "breach": breach},
        {"event": "peer_load", "peers": 30, "links": 60, "hot_peer": 3,
         "max_load": 9, "mean_load": 4.0, "hot": False},
        {"event": "acceptance_rate", "proposals": 80, "accepted": 60,
         "rate": 0.75},
    ]


def transition(peer, frm, to):
    return {"event": "breaker_transition", "peer": peer, "from": frm,
            "to": to, "phi": 3.0}


def breaker_events(opens, reopens):
    """`opens` peers whose breaker opened once; the first of them
    re-opens `reopens` times through half-open."""
    events = [transition(peer, "closed", "open") for peer in range(opens)]
    for _ in range(reopens):
        events.append(transition(0, "open", "half_open"))
        events.append(transition(0, "half_open", "open"))
    return events


class DigestReportTest(unittest.TestCase):

    def run_report(self, events, *args):
        """Writes `events` as a JSONL trace and runs the report on it.
        Returns (exit status, stdout, stderr)."""
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as f:
            for event in events:
                f.write(json.dumps(event) + "\n")
        self.addCleanup(os.remove, f.name)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = digest_report.main(
                [args[0], "--jsonl", f.name, *args[1:]])
        return status, out.getvalue(), err.getvalue()

    # p = 0.5 over 16 occasions puts the floor at exactly 0.5 - 2 * 0.125
    # = 0.25 = 4/16, with no rounding anywhere.
    def test_audit_passes_exactly_at_floor(self):
        status, out, _ = self.run_report([slo_event(4, 16, 0.5)],
                                         "audit", "--gate")
        self.assertEqual(status, 0)
        self.assertIn("gate OK: all 1 run(s)", out)

    def test_audit_fails_one_hit_below_floor(self):
        status, _, err = self.run_report([slo_event(3, 16, 0.5)],
                                         "audit", "--gate")
        self.assertEqual(status, 1)
        self.assertIn("below floor 0.2500", err)

    def test_audit_without_gate_renders_a_failing_run(self):
        status, out, _ = self.run_report([slo_event(3, 16, 0.5)], "audit")
        self.assertEqual(status, 0)
        self.assertIn("NO", out)

    def test_audit_fails_on_embedded_floor_mismatch(self):
        event = slo_event(4, 16, 0.5, coverage_floor=0.2)
        status, _, err = self.run_report([event], "audit", "--gate")
        self.assertEqual(status, 1)
        self.assertIn("embedded coverage_floor", err)

    def test_audit_fails_on_embedded_verdict_mismatch(self):
        event = slo_event(3, 16, 0.5, coverage_ok=True)
        status, _, err = self.run_report([event], "audit", "--gate")
        self.assertEqual(status, 1)
        self.assertIn("embedded coverage_ok True != recomputed False", err)

    def test_diag_passes_at_and_fails_above_breach_fraction(self):
        half = diag_batch(True) + diag_batch(False)
        status, out, _ = self.run_report(half, "diag", "--gate")
        self.assertEqual(status, 0)
        self.assertIn("breach fraction 50.0% within 50.0%", out)
        most = half + diag_batch(True)
        status, _, err = self.run_report(most, "diag", "--gate")
        self.assertEqual(status, 1)
        self.assertIn("breach fraction 66.7% exceeds 50.0%", err)
        status, _, _ = self.run_report(most, "diag", "--gate",
                                       "--max-breach-frac", "0.7")
        self.assertEqual(status, 0)

    def test_diag_fails_when_event_streams_differ_in_length(self):
        events = diag_batch(False) + diag_batch(False)[:3]
        status, out, err = self.run_report(events, "diag")
        self.assertEqual(status, 1)
        self.assertEqual(out, "")
        self.assertIn("disagree in length", err)

    def test_health_passes_at_and_fails_above_flap_rate(self):
        status, out, _ = self.run_report(breaker_events(2, 2), "health",
                                         "--gate")
        self.assertEqual(status, 0)
        self.assertIn("flap rate 50.0% within 50.0%", out)
        status, _, err = self.run_report(breaker_events(1, 2), "health",
                                         "--gate")
        self.assertEqual(status, 1)
        self.assertIn("flap rate 66.7% exceeds 50.0%", err)
        status, _, _ = self.run_report(breaker_events(1, 2), "health",
                                       "--gate", "--max-flap-rate", "0.7")
        self.assertEqual(status, 0)

    def test_every_report_fails_without_its_events(self):
        trace = [{"seq": 0, "t": 1, "event": "tick",
                  "snapshot_executed": True, "degraded": False,
                  "result_updated": True, "reported": 1.0,
                  "ci_halfwidth": 0.5}]
        for command in digest_report.REPORTS:
            for gate in ([], ["--gate"]):
                with self.subTest(command=command, gate=gate):
                    status, out, err = self.run_report(trace, command,
                                                       *gate)
                    self.assertEqual(status, 1)
                    self.assertEqual(out, "")
                    self.assertIn("FAIL:", err)


if __name__ == "__main__":
    unittest.main()
