"""Tests for the performance baseline machinery and the CI bench gate."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.baseline import (
    FLOORS,
    Metric,
    compare,
    load_baseline,
    save_baseline,
)

REPO = Path(__file__).resolve().parent.parent.parent
GATE = REPO / "tools" / "bench_gate.py"
COMMITTED_BASELINE = REPO / "BENCH_baseline.json"


def metric(name, value, *, higher=True, dependent=False):
    return Metric(
        name=name,
        value=value,
        unit="u",
        higher_is_better=higher,
        machine_dependent=dependent,
    )


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        metrics = {
            "alpha": metric("alpha", 2.5),
            "beta": metric("beta", 100.0, higher=False, dependent=True),
        }
        path = tmp_path / "BENCH_test.json"
        save_baseline(metrics, path, target_bytes=1000, seed=1)
        loaded = load_baseline(path)
        assert loaded == metrics

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": 999, "metrics": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_committed_baseline_is_loadable_and_meets_the_floor(self):
        """The repository must always carry a valid baseline whose recorded
        tokenizer speedup satisfies the 2x acceptance criterion."""
        metrics = load_baseline(COMMITTED_BASELINE)
        assert "tokenizer_speedup" in metrics
        assert metrics["tokenizer_speedup"].value >= FLOORS["tokenizer_speedup"]
        assert not metrics["tokenizer_speedup"].machine_dependent
        payload = json.loads(COMMITTED_BASELINE.read_text())
        assert payload["document"]["target_bytes"] >= 1_000_000


class TestCompare:
    def test_higher_is_better_regression(self):
        deltas = compare(
            {"m": metric("m", 10.0)}, {"m": metric("m", 7.0)}
        )
        (delta,) = deltas
        assert delta.regression == pytest.approx(0.3)
        assert delta.exceeded(0.25)
        assert not delta.exceeded(0.35)

    def test_lower_is_better_regression(self):
        deltas = compare(
            {"m": metric("m", 100.0, higher=False)},
            {"m": metric("m", 140.0, higher=False)},
        )
        (delta,) = deltas
        assert delta.regression == pytest.approx(0.4)

    def test_improvement_is_negative_regression(self):
        (delta,) = compare({"m": metric("m", 10.0)}, {"m": metric("m", 12.0)})
        assert delta.regression < 0
        assert not delta.exceeded(0.0)

    def test_floor_violation_flagged(self):
        (delta,) = compare(
            {"tokenizer_speedup": metric("tokenizer_speedup", 2.5)},
            {"tokenizer_speedup": metric("tokenizer_speedup", 1.9)},
        )
        assert delta.below_floor

    def test_missing_metrics_are_skipped(self):
        deltas = compare(
            {"gone": metric("gone", 1.0), "kept": metric("kept", 1.0)},
            {"kept": metric("kept", 1.0), "new": metric("new", 1.0)},
        )
        assert [d.name for d in deltas] == ["kept"]


def run_gate(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(GATE), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=600,
    )


class TestGateTool:
    def test_gate_fails_on_synthetic_regression(self, tmp_path):
        """Acceptance criterion: nonzero exit on a regressed recording."""
        payload = json.loads(COMMITTED_BASELINE.read_text())
        for entry in payload["metrics"].values():
            factor = 0.5 if entry["higher_is_better"] else 2.0
            entry["value"] *= factor
        regressed = tmp_path / "BENCH_regressed.json"
        regressed.write_text(json.dumps(payload))
        proc = run_gate("--fresh", str(regressed))
        assert proc.returncode == 1
        assert "FAIL" in proc.stderr

    def test_gate_passes_on_identical_recording(self):
        proc = run_gate("--fresh", str(COMMITTED_BASELINE))
        assert proc.returncode == 0, proc.stderr
        assert "bench gate passed" in proc.stdout

    def test_gate_fails_below_hard_floor_even_within_threshold(self, tmp_path):
        payload = json.loads(COMMITTED_BASELINE.read_text())
        recorded = payload["metrics"]["tokenizer_speedup"]["value"]
        payload["metrics"]["tokenizer_speedup"]["value"] = min(
            1.99, recorded * 0.9
        )
        slow = tmp_path / "BENCH_slow.json"
        slow.write_text(json.dumps(payload))
        proc = run_gate("--fresh", str(slow), "--threshold", "0.9")
        assert proc.returncode == 1
        assert "hard floor" in proc.stderr

    def test_machine_dependent_regressions_warn_by_default(self, tmp_path):
        payload = json.loads(COMMITTED_BASELINE.read_text())
        for entry in payload["metrics"].values():
            if entry["machine_dependent"] and entry["higher_is_better"]:
                entry["value"] *= 0.4
        noisy = tmp_path / "BENCH_noisy.json"
        noisy.write_text(json.dumps(payload))
        proc = run_gate("--fresh", str(noisy))
        assert proc.returncode == 0, proc.stderr
        assert "WARN" in proc.stdout
        strict = run_gate("--fresh", str(noisy), "--strict-timings")
        assert strict.returncode == 1

    def test_missing_baseline_is_a_distinct_error(self, tmp_path):
        proc = run_gate(
            "--fresh",
            str(COMMITTED_BASELINE),
            "--baseline",
            str(tmp_path / "nope.json"),
        )
        assert proc.returncode == 2

    def test_floor_enforced_without_baseline_entry(self, tmp_path):
        """A baseline missing a floored metric must not disable its floor."""
        base = json.loads(COMMITTED_BASELINE.read_text())
        del base["metrics"]["tokenizer_speedup"]
        baseline = tmp_path / "BENCH_old.json"
        baseline.write_text(json.dumps(base))
        slow = json.loads(COMMITTED_BASELINE.read_text())
        slow["metrics"]["tokenizer_speedup"]["value"] = 1.2
        fresh = tmp_path / "BENCH_slow.json"
        fresh.write_text(json.dumps(slow))
        proc = run_gate("--fresh", str(fresh), "--baseline", str(baseline))
        assert proc.returncode == 1
        assert "hard floor" in proc.stderr

    def test_corrupt_baseline_is_a_distinct_error(self, tmp_path):
        bad = tmp_path / "BENCH_corrupt.json"
        bad.write_text("{not json")
        proc = run_gate("--fresh", str(COMMITTED_BASELINE), "--baseline", str(bad))
        assert proc.returncode == 2
        assert "ERROR" in proc.stderr
        schema = tmp_path / "BENCH_schema.json"
        schema.write_text(json.dumps({"schema": 999, "metrics": {}}))
        proc = run_gate("--fresh", str(schema))
        assert proc.returncode == 2

    def test_update_from_recording_preserves_provenance(self, tmp_path):
        """--update --fresh must not restamp host/document metadata."""
        payload = json.loads(COMMITTED_BASELINE.read_text())
        payload["host"] = {"python": "9.9.9", "machine": "riscv", "system": "Plan9"}
        payload["document"] = {"target_bytes": 5_000_000, "seed": 7}
        recording = tmp_path / "BENCH_elsewhere.json"
        recording.write_text(json.dumps(payload))
        target = tmp_path / "BENCH_updated.json"
        proc = run_gate(
            "--fresh", str(recording), "--update", "--baseline", str(target)
        )
        assert proc.returncode == 0, proc.stderr
        updated = json.loads(target.read_text())
        assert updated["host"] == payload["host"]
        assert updated["document"] == payload["document"]

    def test_missing_tracked_metric_fails_the_gate(self, tmp_path):
        payload = json.loads(COMMITTED_BASELINE.read_text())
        del payload["metrics"]["tokenizer_speedup"]
        pruned = tmp_path / "BENCH_pruned.json"
        pruned.write_text(json.dumps(payload))
        proc = run_gate("--fresh", str(pruned))
        assert proc.returncode == 1
        assert "missing from the fresh run" in proc.stderr

    def test_floored_metric_missing_everywhere_fails_the_gate(self, tmp_path):
        """A floored metric dropped from the suite *and* from the baseline
        (say by ``--update``) must not take its floor with it."""
        payload = json.loads(COMMITTED_BASELINE.read_text())
        del payload["metrics"]["tokenizer_speedup"]
        pruned = tmp_path / "BENCH_pruned.json"
        pruned.write_text(json.dumps(payload))
        proc = run_gate("--fresh", str(pruned), "--baseline", str(pruned))
        assert proc.returncode == 1
        assert "floored metric 'tokenizer_speedup' missing" in proc.stderr
