"""dispgeo benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload f2-scan --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 42     # every workload

Load is a closed loop with one client: one op at a time, each in a fresh
interpreter (no ``lru_cache`` or lazy import carries over), never more
than one child process at once.  ``--trace 0`` runs ``round(seconds /
cycle)`` cycles of the workload and reports the end-to-end metrics;
``--trace 1`` runs one cycle untraced and the same cycle traced and
reports the per-layer metrics and the tracing overhead.  Every op's
output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-op records,
the environment stamp and trace spans go to ``.perfbench_out/``.

The benchmark changes no machine setting: no cache drops, no CPU
pinning, no frequency control.  Co-tenant load and CPU frequency are
therefore not controlled; end-to-end times are corrected to a reference
host speed measured during each op (``hostspeed``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import plan
import stats
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_DEADLINE_S = 170.0
# No new cycle starts once a run has taken this many times --seconds, so
# a slow machine stretches a run by at most one cycle beyond that.
OVERRUN = 1.1

END_TO_END_UNITS = {"op_p50_s": "s", "op_tail_s": "s", "op_cpu_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB",
                    "completed_frac": "ratio"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_selection")):
        return "ratio"
    return "count"


def environment() -> dict:
    """CPU, core count, library versions, mpmath backend, BLAS threads."""
    import ctypes

    import mpmath
    import numpy

    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas_threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "blas_threads": blas_threads,
            "machine_settings": "unchanged: no cache drops, no CPU pinning; "
                                "co-tenant load and CPU frequency are not "
                                "controlled, end-to-end times are corrected "
                                "to a reference host speed"}


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the first import of numpy, mpmath and
    dispgeo (the package plus ``dispgeo.cli``, which it does not import)
    from ``-X importtime`` output."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        name = parts[2].strip()
        top = name if name != "dispgeo.cli" else "dispgeo"
        if top not in ("numpy", "mpmath", "dispgeo"):
            continue
        if name == top and top in out:
            continue
        try:
            out[top] = out.get(top, 0.0) + int(parts[1]) / 1e6
        except ValueError:
            continue
    return out


class Runner:
    """Runs the ops of one workload run, one child at a time."""

    def __init__(self, seconds: float, work: Path,
                 digests: dict | None = None,
                 deadline_s: float | None = RUN_DEADLINE_S):
        self.seconds = seconds
        self.work = work
        self.digests = digests
        self.started = time.monotonic()
        self.deadline = (None if deadline_s is None
                         else self.started + deadline_s)
        self.outcomes: list[dict] = []

    def out_of_time(self) -> bool:
        return (self.deadline is not None and time.monotonic()
                > self.started + min(OVERRUN * self.seconds, RUN_DEADLINE_S))

    def run(self, op: plan.Op, trace: bool = False,
            spans: Path | None = None) -> dict:
        file_path = self.work / "matrices.json"
        if op.file_text:
            file_path.write_text(op.file_text, encoding="utf-8")
        spec = {"src": str(SRC), "argv": list(op.argv), "call": op.call,
                "matrix": op.matrix, "file": str(file_path),
                "trace": trace, "op_id": len(self.outcomes),
                "spans": str(spans) if spans else ""}
        cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
            str(BENCH_DIR / "child.py")]
        timeout = (None if self.deadline is None
                   else max(1.0, self.deadline - time.monotonic()))
        spec["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(cmd + [json.dumps(spec)], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            outcome = {"key": op.key, "ok": False, "error": "timed out"}
            self.outcomes.append(outcome)
            return outcome
        outcome = self._judge(op, proc)
        if trace:
            outcome["imports"] = import_times(proc.stderr)
        self.outcomes.append(outcome)
        return outcome

    def _judge(self, op: plan.Op, proc) -> dict:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"key": op.key, "ok": False,
                    "error": f"child exit {proc.returncode}: {tail[0]}"}
        res = json.loads(lines[-1])
        res["key"] = op.key
        report = res.pop("report")
        if res["error"] is None and res["code"] != 0 and not report:
            messages = proc.stderr.strip().splitlines()
            res["error"] = (f"exit {res['code']}: "
                            f"{messages[-1] if messages else ''}")
        if res["error"] is None:
            res["wrong"] = checks.CHECKS[op.check](op, report, res["code"])
            if res["wrong"] is None and self.digests is not None:
                res["wrong"] = checks.digest_problem(op, report,
                                                     self.digests)
        res["ok"] = res["error"] is None and res.get("wrong") is None
        res["digest"] = checks.digest(report)
        return res

    def counts(self) -> tuple[int, int, bool]:
        failed = sum(1 for o in self.outcomes if not o["ok"])
        correct = not any(o.get("wrong") for o in self.outcomes)
        return len(self.outcomes), failed, correct


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    """End-to-end metrics, times corrected to the reference host speed
    (``hostspeed``); the uncorrected medians go to the notes."""
    outs = runner.outcomes
    measured = [o for o in outs if "setup_s" in o]
    for o in measured:
        o["op_speed"] = hostspeed.speed(o["probes_op"])
        o["setup_speed"] = hostspeed.speed(o["probes_setup"])
    lat = stats.latency([o["op_s"] * o["op_speed"] if o["ok"] else None
                         for o in outs], penalty=runner.seconds)
    raw = stats.latency([o["op_s"] if o["ok"] else None for o in outs],
                        penalty=runner.seconds)
    attempted, failed, _ = runner.counts()
    metrics = {
        "op_p50_s": lat["p50"],
        "op_tail_s": lat["tail"],
        "op_cpu_s": stats.median([o["cpu_s"] * o["op_speed"]
                                  for o in measured]),
        "setup_s": stats.median([o["setup_s"] * o["setup_speed"]
                                 for o in measured]),
        "peak_rss_mb": max(o["rss_mb"] for o in measured),
        "completed_frac": (attempted - failed) / attempted,
    }
    notes = {"tail_percentile": lat["tail_percentile"], "ops": lat["n"],
             "failed_frac": failed / attempted,
             "raw_op_p50_s": raw["p50"], "raw_op_tail_s": raw["tail"],
             "raw_setup_s": stats.median([o["setup_s"] for o in measured]),
             "host_speed": stats.median([o["op_speed"] for o in measured])}
    return metrics, notes


def per_layer(untraced: list[dict], traced: list[dict],
              spans_dir: Path) -> dict:
    import numpy as np

    totals = tracer.Totals()
    for path in sorted(spans_dir.glob("*.npz")):
        with np.load(path) as spans:
            totals.add(spans)
    metrics = totals.metrics()
    plain = sum(o.get("op_s", 0.0) for o in untraced)
    with_trace = sum(o.get("op_s", 0.0) for o in traced)
    metrics["trace.overhead_ratio"] = with_trace / plain if plain else 0.0
    for module, key in (("numpy", "import.numpy_s"),
                        ("dispgeo", "import.dispgeo_s")):
        values = [o["imports"][module] for o in traced
                  if module in o.get("imports", {})]
        metrics[key] = stats.median(values) if values else 0.0
    lazy = [o["imports"].get("mpmath", 0.0) if o.get("mpmath_lazy") else 0.0
            for o in traced if "imports" in o]
    metrics["import.mpmath_lazy_s"] = sum(lazy)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    digests = checks.load_digests() if seed == plan.DEFAULT_SEED else None
    runner = Runner(seconds, work, digests)
    if not trace:
        cycles = plan.build(workload, seed, plan.cycles_for(workload,
                                                            seconds))
        for cycle in cycles:
            if runner.out_of_time():
                break
            for op in cycle:
                runner.run(op)
        metrics, notes = end_to_end(runner)
        units = END_TO_END_UNITS
    else:
        cycle = plan.build(workload, seed, 1)[0]
        spans_dir = OUT / "spans" / workload
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        untraced, traced = [], []
        for i, op in enumerate(cycle):
            if runner.out_of_time():
                break
            untraced.append(runner.run(op))
            traced.append(runner.run(op, trace=True,
                                     spans=spans_dir / f"op{i}.npz"))
        metrics = per_layer(untraced, traced, spans_dir)
        total = metrics["trace.op_s"]
        notes = {"layer_share": {
            layer: metrics[f"{layer}.self_s"] / total if total else 0.0
            for layer in tracer.LAYERS}}
        units = {name: per_layer_unit(name) for name in metrics}
    attempted, failed, correct = runner.counts()
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "attempted": attempted, "failed": failed,
            "correct": correct, "notes": notes,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
            "ops": runner.outcomes}


def describe(result: dict) -> list[str]:
    """Human-readable lines for one workload result."""
    w = result["workload"]
    lines = [f"workload {w} seed {result['seed']} trace "
             f"{int(result['trace'])}: {result['attempted']} ops, "
             f"{result['failed']} failed, correct {result['correct']}"]
    notes = result["notes"]
    for name, m in result["metrics"].items():
        extra = ""
        if name == "op_tail_s":
            extra = (f"  (p{notes['tail_percentile']:.1f} of "
                     f"{notes['ops']} ops)")
        lines.append(f"  {w} {name} = {m['value']:.6g} {m['unit']}{extra}")
    if "failed_frac" in notes:
        lines.append(f"  {w} failed_frac = {notes['failed_frac']:.6g} ratio")
        lines.append(f"  {w} uncorrected: op_p50_s = "
                     f"{notes['raw_op_p50_s']:.6g} s, op_tail_s = "
                     f"{notes['raw_op_tail_s']:.6g} s, setup_s = "
                     f"{notes['raw_setup_s']:.6g} s; median host speed "
                     f"{notes['host_speed']:.3f} of the reference")
    if "layer_share" in notes:
        lines.append(f"  {w} share of traced op time: " + ", ".join(
            f"{layer} {share:.1%}"
            for layer, share in notes["layer_share"].items()))
    for o in result["ops"]:
        if not o["ok"]:
            reason = o.get("error") or o.get("wrong")
            lines.append(f"  failed op: {o['key'][:80]}: {reason}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=plan.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=plan.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "dispgeo" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no dispgeo sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()

    workloads = plan.WORKLOADS if args.workload == "all" else (
        args.workload,)
    OUT.mkdir(exist_ok=True)
    results = []
    for w in workloads:
        work = OUT / f"work-{os.getpid()}"
        work.mkdir(exist_ok=True)
        try:
            results.append(run_workload(w, args.seed, args.seconds,
                                        bool(args.trace), work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        record = dict(results[-1], env=env)
        (OUT / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        for line in describe(results[-1]):
            print(line)
    print("env " + json.dumps(env))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
