#!/usr/bin/env python3
"""symdet benchmark: ``build`` and ``verify`` through the CLI on seeded corpora.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-formulas --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in a
child process of its own so that ``peak_rss_mb`` is that workload's peak.
Every op is one in-process call of ``symdet.cli.main(argv)`` (argparse,
file I/O, the CLI's own bound bookkeeping and the dense text format
included), one at a time in a closed loop, no threads.  A pass runs every
op of the corpus once, each build op followed by the verify op for its
matrix, so build and verify times sample the same stretch of host speed.
With ``--trace 0`` passes repeat while the next one is expected to end
within ``--seconds`` (at least one), and ``build_s`` / ``verify_s`` are
medians of the per-pass totals.  Times are reference seconds, wall time
scaled to a reference host speed (see ``HostClock``).  With ``--trace 1``
the run makes exactly one untraced and one traced pass, so its counters
repeat exactly for a seed, and reports per-layer self times, call counts,
each layer's share of the traced pass and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes
``.perfbench-run/<workload>-seed<n>-trace<t>.json`` with every figure,
per-pass wall and CPU time, and in traced runs the spans beside it.  The
exit status is 1 when an op fails or an output check fails, and 2 when the
package cannot be set up (for example when ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_corpus, write_files  # noqa: E402

# set-ups timed before the passes (the last one is kept) and after them, so
# the setup_s median samples the host at both ends of the run
SETUPS_BEFORE = 3
SETUPS_AFTER = 4
PASS_KEYS = ("build_s", "verify_s", "build_wall_s", "verify_wall_s", "host_factor",
             "wall_s", "cpu_s")
RUN_DIR = ROOT / ".perfbench-run"

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "build_p50_ms": "ms",
    "verify_p50_ms": "ms",
    "matrix_dim_sum": "count",
    "matrix_nnz_sum": "count",
    "peak_rss_mb": "MB",
}
# Per-layer figures in the JSON.  Every time there is measured on every
# workload, so the self times are those of the functions that every workload
# calls; the others read a constant 0 on some workload and are printed and
# kept in the results file instead (their layer's self time covers them).
# Counts are exact and may be 0.
SELF_TIMED = [
    "cli.main", "circuits.parse_circuit", "graphs.parse_matrix", "circuits.classify",
    "circuits.measure", "minimize.minimize", "graphs.adjacency", "graphs.render_matrix",
    "verify.identity_test", "verify.det_eval", "circuits.evaluate",
]
PER_LAYER = (
    {f"layer.{layer}.self_s": "s" for layer in tracing.LAYERS}
    | {f"{name}.self_s": "s" for name in SELF_TIMED}
    | {f"{name}.calls": "count" for name in tracing.SPANNED + tracing.COUNTED}
    | {
        "verify.trials": "count",
        "verify.exact": "count",
        "graphs.dense_cells": "count",
        "probe.depth_failed": "count",
        "trace.build_overhead_s": "s",
        "trace.verify_overhead_s": "s",
    }
)


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# Shared hosts change speed by up to 2x for seconds to minutes at a time, and
# CPU time follows wall time, so raw wall times of one workload spread by
# 20-46% across runs.  So the host's speed is sampled with a calibration: a
# fixed pure-Python kernel (modular elimination on a fixed 12x12 matrix plus
# dict and string work, the same kinds of work the ops do) that owes nothing
# to symdet.  It runs before and after every timed step and, from a timer
# signal, every SAMPLE_PERIOD_S during long steps.  A step's reference time is
# its wall time (minus the sampling) scaled by CAL_REFERENCE_S / (mean kernel
# time over the step): what it would take on a host where the kernel takes
# CAL_REFERENCE_S, about its median on the shared 2-core Xeon virtual machine
# the benchmark was tuned on.  Raw wall times are kept beside every reference
# time.
CAL_REFERENCE_S = 0.0004
SAMPLE_PERIOD_S = 0.25
_CAL_P = (1 << 61) - 1
_CAL_RNG = random.Random(0)
_CAL_ROWS = [[_CAL_RNG.randrange(_CAL_P) for _ in range(12)] for _ in range(12)]


def _cal_kernel() -> int:
    rows = [r[:] for r in _CAL_ROWS]
    for col in range(12):
        inv = pow(rows[col][col], -1, _CAL_P)
        prow = rows[col]
        for r in range(col + 1, 12):
            f = rows[r][col] * inv % _CAL_P
            rows[r] = [(a - f * b) % _CAL_P for a, b in zip(rows[r], prow)]
    names = {i: f"x{i}" for i in range(100)}
    return sum(len(v) for v in names.values()) + rows[11][11]


def calibrate() -> float:
    """Seconds the calibration kernel takes now: the fastest of three tries,
    so an interrupt does not read as a slow host."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _cal_kernel()
        best = min(best, perf_counter() - t0)
    return best


class HostClock:
    """Times steps in reference seconds; a context manager that owns the
    sampling timer (SIGALRM) while it is open."""

    def __enter__(self):
        self.samples = [calibrate()]
        self.sampling_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        t0 = perf_counter()
        try:
            self.samples.append(calibrate())
        except RecursionError:  # interrupted code sits at the recursion limit
            pass
        self.sampling_s += perf_counter() - t0

    def time(self, fn, *args):
        """(fn(*args), reference seconds, wall seconds), sampling excluded."""
        first, sampling0 = len(self.samples) - 1, self.sampling_s
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0 - (self.sampling_s - sampling0)
        self.samples.append(calibrate())
        return result, wall * CAL_REFERENCE_S / statistics.fmean(self.samples[first:]), wall

    def host_factor(self, since: int) -> float:
        """Median kernel time since sample ``since``, over CAL_REFERENCE_S."""
        return statistics.median(self.samples[since:]) / CAL_REFERENCE_S


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def fresh_import():
    """Import symdet from this checkout's ``src/`` afresh (drops any loaded copy)."""
    for name in [n for n in sys.modules if n == "symdet" or n.startswith("symdet.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        cli = importlib.import_module("symdet.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import symdet from {src}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SetupError(f"symdet was imported from {cli.__file__}, not {src}")
    return cli


def _write_and_warm_up(corpus) -> None:
    write_files(corpus)
    for op in corpus.warmup:  # outcomes are checked on the measured ops
        run_op(op)


def setup_once(clock: HostClock, workload: str, seed: int):
    """Import, write the corpus files, warm up; returns (corpus, workdir,
    (reference seconds, wall seconds)).  Generating the corpus in memory is
    the benchmark's own work, which users never pay, so it runs untimed
    between the import and the writing."""
    gc.collect()
    _, import_ref, import_wall = clock.time(fresh_import)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=RUN_DIR)
    corpus = make_corpus(workload, seed, workdir)
    _, write_ref, write_wall = clock.time(_write_and_warm_up, corpus)
    return corpus, workdir, (import_ref + write_ref, import_wall + write_wall)


def extra_setups(clock: HostClock, workload: str, seed: int,
                 count: int) -> list[tuple[float, float]]:
    """Timed set-ups whose corpus is thrown away."""
    times = []
    for _ in range(count):
        _, workdir, seconds = setup_once(clock, workload, seed)
        shutil.rmtree(workdir)
        times.append(seconds)
    return times


# ---------------------------------------------------------------------------
# ops and passes
# ---------------------------------------------------------------------------


def run_op(op):
    """Run one op through ``symdet.cli.main``; returns (exit code or None on
    an exception, captured stdout or the exception text)."""
    main = sys.modules["symdet.cli"].main  # the module attribute, so a tracer sees it
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = main(op.argv)
        if op.stdout_to:
            with open(op.stdout_to, "w") as fh:
                fh.write(out.getvalue())
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2, out.getvalue()
    except Exception as exc:  # RecursionError included: a failed op, not a crash
        return None, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


class Ledger:
    """Per-op outcomes across passes: failures, reference digests, sizes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: dict[int, str] = {}
        self.size: dict[int, tuple[int, int]] = {}

    def record(self, index: int, op, rc, out: str) -> None:
        self.attempted += 1
        if rc is None or (op.phase == "build" and rc != 0):
            reason = out.strip()[-300:] if rc is None else f"exit {rc}"
            self.failures.append(f"{op.label}: {reason}")
            return
        if op.phase == "verify":
            self.failures.extend(checks.check_verify(op, rc, out))
            return
        with open(op.matrix) as fh:
            text = fh.read()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if index not in self.digest:
            errors = checks.check_build(op, text)
            self.failures.extend(errors)
            if not errors:
                self.digest[index] = digest
                self.size[index] = checks.matrix_stats(text)
        elif self.digest[index] != digest:
            self.failures.append(f"{op.label}: output differs from the first pass")


def run_pass(clock: HostClock, corpus, ledger: Ledger, tracer=None) -> dict:
    """Run every op once, in corpus order.  The checks run after the pass, so
    every pass times the ops alike (each op writes its own matrix file)."""
    gc.collect()
    wall0, cpu0, first_sample = perf_counter(), process_time(), len(clock.samples)
    ms = {"build": [], "verify": []}        # reference milliseconds per op
    wall = {"build": 0.0, "verify": 0.0}
    outcomes = []
    for index, op in enumerate(corpus.ops):
        if tracer is not None:
            tracer.op_id = index
            tracer.recording = True
        (rc, out), ref, seconds = clock.time(run_op, op)
        if tracer is not None:
            tracer.recording = False
        ms[op.phase].append(ref * 1000)
        wall[op.phase] += seconds
        outcomes.append((index, op, rc, out))
    wall_s, cpu_s = perf_counter() - wall0, process_time() - cpu0
    for outcome in outcomes:
        ledger.record(*outcome)
    return {"build_s": sum(ms["build"]) / 1000, "verify_s": sum(ms["verify"]) / 1000,
            "build_wall_s": wall["build"], "verify_wall_s": wall["verify"],
            "host_factor": clock.host_factor(first_sample),
            "build_ms": ms["build"], "verify_ms": ms["verify"],
            "wall_s": wall_s, "cpu_s": cpu_s}


def run_probe(corpus) -> dict | None:
    """The depth probe: once per run, untimed, never with a raised recursion
    limit.  A failure is reported, not counted among the measured ops."""
    if corpus.probe is None:
        return None
    t0 = perf_counter()
    rc, out = run_op(corpus.probe)
    seconds = perf_counter() - t0
    ok = rc == 0 and not checks.check_build(corpus.probe, Path(corpus.probe.matrix).read_text())
    return {"op": corpus.probe.label, "ok": ok, "seconds": seconds,
            "error": None if ok else (out.strip()[-200:] if rc is None else f"exit {rc}")}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def percentile_report(samples: list[float]) -> dict:
    out = {"n": len(samples), "p50": statistics.median(samples)}
    if len(samples) >= 2:
        p90 = statistics.quantiles(samples, n=10)[8]
        beyond = sum(1 for s in samples if s > p90)
        if beyond >= 10:
            out.update(p90=p90, beyond_p90=beyond)
    return out


def measure_passes(clock: HostClock, corpus, ledger: Ledger, start: float,
                   seconds: float) -> list[dict]:
    """Passes while the next one is expected to end within ``seconds``; at least one."""
    passes = []
    while True:
        passes.append(run_pass(clock, corpus, ledger))
        if perf_counter() + passes[-1]["wall_s"] > start + seconds:
            return passes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with HostClock() as clock:
        setups = extra_setups(clock, workload, seed, SETUPS_BEFORE - 1)
        corpus, workdir, kept = setup_once(clock, workload, seed)
        setups.append(kept)
        try:
            ledger = Ledger()
            run_wall0, run_cpu0 = perf_counter(), process_time()
            if trace:
                passes = [run_pass(clock, corpus, ledger)]
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = run_pass(clock, corpus, ledger, tracer)
                finally:
                    tracer.uninstall()
            else:
                passes = measure_passes(clock, corpus, ledger, run_wall0, seconds)
            run_wall, run_cpu = perf_counter() - run_wall0, process_time() - run_cpu0
            probe = run_probe(corpus)
        finally:
            shutil.rmtree(workdir)
        setups += extra_setups(clock, workload, seed, SETUPS_AFTER)

    build_ms = [t for p in passes for t in p["build_ms"]]
    verify_ms = [t for p in passes for t in p["verify_ms"]]
    sizes = list(ledger.size.values())
    figures = {
        "setup_s": statistics.median(ref for ref, _ in setups),
        "build_s": statistics.median(p["build_s"] for p in passes),
        "verify_s": statistics.median(p["verify_s"] for p in passes),
        "build_p50_ms": statistics.median(build_ms),
        "verify_p50_ms": statistics.median(verify_ms),
        "matrix_dim_sum": sum(d for d, _ in sizes),
        "matrix_nnz_sum": sum(n for _, n in sizes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = ledger.attempted + (probe is not None)
    failed = len(ledger.failures) + (probe is not None and not probe["ok"])
    wall_figures = {
        "setup_s": statistics.median(w for _, w in setups),
        "build_s": statistics.median(p["build_wall_s"] for p in passes),
        "verify_s": statistics.median(p["verify_wall_s"] for p in passes),
    }
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "failures": ledger.failures[:20],
        "fail_ratio": {"failed": failed, "attempted": attempted, "ratio": failed / attempted,
                       "includes_depth_probe": probe is not None},
        "depth_probe": probe,
        "figures": figures,
        "wall_figures": wall_figures,
        "verify_latency_ms": percentile_report(verify_ms),
        "passes": [{k: p[k] for k in PASS_KEYS} for p in passes],
        "run": {"wall_s": run_wall, "cpu_s": run_cpu},
    }
    if trace:
        result["traced_pass"] = {k: traced[k] for k in PASS_KEYS}
        result["per_layer"] = per_layer_figures(tracer, passes[0], traced, sizes, probe)
        result["self_s"] = tracer.self_times()
        result["layer_shares"] = layer_shares(tracer, corpus, traced)
        result["calls"] = dict(tracer.calls)
        tracer.write_spans(str(RUN_DIR / f"{workload}-seed{seed}.spans.jsonl"))
    return result


def layer_shares(tracer, corpus, traced: dict) -> dict:
    """{phase: {layer: share of the phase's wall time}} for the traced pass;
    ``other`` is the time outside every traced function."""
    out = {}
    for phase in ("build", "verify"):
        ops = {i for i, op in enumerate(corpus.ops) if op.phase == phase}
        self_s = tracer.self_times(ops)
        total = traced[f"{phase}_wall_s"]
        shares = {layer: sum(self_s[f"{m}.{f}"] for m, f in funcs) / total
                  for layer, funcs in tracing.LAYERS.items()}
        shares["other"] = 1 - sum(shares.values())
        out[phase] = shares
    return out


def per_layer_figures(tracer, untraced: dict, traced: dict, sizes, probe) -> dict:
    self_s = tracer.self_times()
    out = {f"layer.{layer}.self_s": sum(self_s[f"{m}.{f}"] for m, f in funcs)
           for layer, funcs in tracing.LAYERS.items()}
    out.update({f"{name}.self_s": self_s[name] for name in SELF_TIMED})
    out.update({f"{name}.calls": tracer.calls[name] for name in tracing.SPANNED + tracing.COUNTED})
    out.update({
        "verify.trials": tracer.counters["verify.trials"],
        "verify.exact": tracer.counters["verify.exact"],
        "graphs.dense_cells": sum(d * d for d, _ in sizes),
        "probe.depth_failed": int(probe is not None and not probe["ok"]),
        "trace.build_overhead_s": traced["build_s"] - untraced["build_s"],
        "trace.verify_overhead_s": traced["verify_s"] - untraced["verify_s"],
    })
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_report(r: dict) -> None:
    w = r["workload"]
    print(f"== {w} (seed {r['seed']}, trace {r['trace']}) ==")
    for name, unit in END_TO_END.items():
        wall = r["wall_figures"].get(name)
        note = f"   (wall {wall:.6f} s)" if wall is not None else ""
        print(f"{w}  {name:<16} {r['figures'][name]:>14.6f} {unit}{note}")
    lat = r["verify_latency_ms"]
    if "p90" in lat:
        print(f"{w}  {'verify_p90_ms':<16} {lat['p90']:>14.6f} ms"
              f"  ({lat['n']} samples, {lat['beyond_p90']} beyond p90)")
    else:
        print(f"{w}  verify_p90_ms    not reported: {lat['n']} verify samples leave "
              f"fewer than 10 beyond p90")
    fr = r["fail_ratio"]
    probe_note = ", depth probe included" if fr["includes_depth_probe"] else ""
    print(f"{w}  {'fail_ratio':<16} {fr['ratio']:>14.6f}  ({fr['failed']} failed / "
          f"{fr['attempted']} attempted{probe_note})")
    if r["depth_probe"] is not None:
        p = r["depth_probe"]
        status = "ok" if p["ok"] else f"FAILED ({p['error']})"
        print(f"{w}  depth probe      {p['op']}: {status} in {p['seconds']:.3f} s "
              f"(untimed; not in the JSON failed count)")
    traced = [r["traced_pass"]] if r["trace"] else []
    for i, p in enumerate(r["passes"] + traced):
        print(f"{w}  pass {i}{' (traced)' if i >= len(r['passes']) else ''}: "
              f"build_s {p['build_s']:.4f} verify_s {p['verify_s']:.4f} | wall: "
              f"build_s {p['build_wall_s']:.4f} verify_s {p['verify_wall_s']:.4f} "
              f"pass {p['wall_s']:.4f} cpu {p['cpu_s']:.4f} | host factor {p['host_factor']:.3f}")
    print(f"{w}  run wall_s {r['run']['wall_s']:.4f} cpu_s {r['run']['cpu_s']:.4f}")
    if r["trace"]:
        shares = r["layer_shares"]
        print(f"{w}  {'layer self time, share of':<26} {'build':>8} {'verify':>8}")
        for layer in shares["build"]:
            print(f"{w}  {layer:<26} {shares['build'][layer]:>8.1%} "
                  f"{shares['verify'][layer]:>8.1%}")
        print(f"{w}  {'function':<34} {'calls':>8} {'self_s':>12}")
        for name in tracing.SPANNED:
            print(f"{w}  {name:<34} {r['calls'].get(name, 0):>8} {r['self_s'][name]:>12.6f}")
        for name, value in r["per_layer"].items():
            if name.rsplit(".", 1)[0] not in tracing.SPANNED:  # not already in the table
                print(f"{w}  {name:<34} {value}")
    for f in r["failures"]:
        print(f"{w}  FAILED {f}")


def metrics_of(r: dict) -> dict:
    if r["trace"]:
        return {k: {"value": r["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    return {k: {"value": r["figures"][k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    RUN_DIR.mkdir(exist_ok=True)
    try:
        r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(r, fh, indent=1)
    print_report(r)
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics_of(r)}))
    return 0 if r["correct"] else 1


def run_all(args) -> int:
    """Every workload in a child process of its own, one after another; the
    metrics are merged under ``<workload>.`` prefixes."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or not lines:
            return child.returncode or 2  # the child said why on stderr
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
