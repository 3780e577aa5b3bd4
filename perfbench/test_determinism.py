"""Self-tests of the benchmark.

Run from the root of a checkout (takes about five minutes):

    python3 -m pytest -q perfbench/test_determinism.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

# figures that depend only on the seed, never on timing
DETERMINISTIC = (
    "matrix_dim_sum",
    "matrix_nnz_sum",
    "verify.trials",
    "verify.exact",
    "graphs.dense_cells",
    "minimize.minimize.calls",
    "fields.embed.calls",
)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _traced_counters(workload: str, seed: int) -> dict:
    p = _run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    result = json.loads((run.RUN_DIR / f"{workload}-seed{seed}-trace1.json").read_text())
    figures = result["figures"] | result["per_layer"]
    counters = {k: figures[k] for k in DETERMINISTIC}
    counters["calls"] = result["calls"]
    return counters


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly_for_a_seed(workload):
    assert _traced_counters(workload, 3) == _traced_counters(workload, 3)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_all_reports_each_workloads_own_peak_rss():
    """``--workload all`` runs each workload in its own process, so char2's
    peak memory does not include the workloads that ran before it."""
    args = ("--seed", "1", "--seconds", "1", "--trace", "0")
    alone = _run("--workload", "char2", *args)
    every = _run("--workload", "all", *args)
    assert alone.returncode == 0 and every.returncode == 0, every.stderr[-2000:]
    metrics = json.loads(every.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {f"{w}.{m}" for w in WORKLOADS for m in run.END_TO_END}
    own = json.loads(alone.stdout.strip().splitlines()[-1])["metrics"]["peak_rss_mb"]["value"]
    bound = next(m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["end_to_end"] if m["name"] == "peak_rss_mb")
    assert abs(metrics["char2.peak_rss_mb"]["value"] - own) <= bound * own


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("--workload", "char2", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_checks_reject_bad_outputs():
    from symdet.circuits import CircuitBuilder

    b = CircuitBuilder()
    c = b.build([b.add(b.var("x"), b.var("y"))])
    op = Op("build", "sym/skinny x+y", [], method="sym", size="skinny", circuit=c)
    assert checks.check_build(op, "2 symmetric\nx 1\n1 y\n") == []
    assert checks.check_build(op, "2 symmetric\nx 1\n-1 y\n")          # not symmetric
    assert checks.check_build(op, "2\nx 1\n1 y\n")                      # header not symmetric
    assert checks.check_build(op, "2 symmetric\nx 7\n7 y\n")            # 7 outside the alphabet
    big = "9 symmetric\n" + "\n".join(" ".join(["0"] * 9) for _ in range(9)) + "\n"
    assert checks.check_build(op, big)                                  # 9 > 2*1+3
    verify = Op("verify", "verify", ["verify"])
    assert checks.check_verify(verify, 0, "verified-random (dimension 5)\n") == []
    assert checks.check_verify(verify, 1, "FAILED (dimension 5)\n")
