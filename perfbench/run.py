"""Benchmark of the expcircle command line.

    python3 perfbench/run.py --workload {verify,coupling,decay}
                             [--seed 42] [--seconds 20] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.  One
process calls ``expcircle.cli.main(argv)`` in-process for each command of
the workload (see workloads.py) and checks what each command wrote.  It
runs the whole command list again until ``--seconds`` have passed, at
least once.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
fresh-interpreter probes), the wall and CPU time of a pass (medians over
the passes), and the peak resident memory up to the end of the first
pass.  ``--trace 1`` runs a warm-up pass, an untraced pass and then one
pass with spans recorded around every public function of the package
(spans.py), and reports the per-layer metrics.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Results, the environment and (traced) the spans are also written to
``perfbench/out/<workload>-trace<0|1>/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import LAYERS, SPAN_METRICS, Tracer, layer_metrics, span_records
from workloads import CHECKS, SETUP_MAPS, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
COMMAND_NAMES = ("verify", "coupling", "invariant", "decay")
PER_LAYER = (
    *SPAN_METRICS,
    ("cli.bytes_written", "bytes"),
    *((f"cli.{c}_s", "s") for c in COMMAND_NAMES),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.count_errors", "count"),
)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def setup_samples(workload: str) -> list:
    """Seconds to import expcircle and construct the workload's maps, each
    measured in a fresh interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(cli, workload: str, seed: int, pass_dir: Path) -> dict:
    """Every command of the workload once, each followed by its check."""
    pass_dir.mkdir(parents=True)
    records = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for i, cmd in enumerate(commands(workload, seed)):
        out = pass_dir / f"{i:02d}"
        out.mkdir()
        argv = cmd.full_argv(out, pass_dir / f"{i:02d}.config.json")
        captured = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
        except Exception:  # an uncaught error is a failed operation
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - t
        ops, failed, why = CHECKS[cmd.name](code, out)
        records.append({
            "label": cmd.label, "command": cmd.name, "argv": argv,
            "seconds": seconds, "exit_code": code, "ops": ops,
            "failed": failed, "why": why,
            "bytes_written": sum(f.stat().st_size for f in out.iterdir()),
        })
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    shutil.rmtree(pass_dir)
    return {"wall_s": wall, "cpu_s": cpu, "commands": records}


def tally(records) -> tuple:
    """(attempted, failed): operations over all command records."""
    return (sum(r["ops"] for r in records),
            sum(r["failed"] for r in records))


def command_seconds(passes) -> dict:
    """Per CLI command name, its seconds summed over one pass (median over
    the passes)."""
    return {
        c: statistics.median(
            sum(r["seconds"] for r in p["commands"] if r["command"] == c)
            for p in passes)
        for c in COMMAND_NAMES
    }


def measure(cli, args, run_dir: Path, setup: list) -> tuple:
    """Passes until ``args.seconds`` have passed; the end-to-end metrics."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(cli, args.workload, args.seed,
                               run_dir / f"pass{len(passes)}"))
        if len(passes) == 1:
            # Caches keyed by map grow with every pass, so the peak is
            # taken after the first one: the same work however many
            # passes fit in the run.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    return passes, metrics


def measure_traced(cli, args, run_dir: Path) -> tuple:
    """A warm-up pass, an untraced pass and a traced one; the per-layer
    metrics.  The tracing overhead compares the two warm passes."""
    warmup = run_pass(cli, args.workload, args.seed, run_dir / "warmup")
    base = run_pass(cli, args.workload, args.seed, run_dir / "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, args.workload, args.seed, run_dir / "traced")
    finally:
        tracer.remove()
    metrics = layer_metrics(tracer.spans)
    layer_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    metrics["cli.bytes_written"] = sum(r["bytes_written"]
                                       for r in traced["commands"])
    for c, s in command_seconds([traced]).items():
        metrics[f"cli.{c}_s"] = s
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    metrics["trace.coverage"] = layer_total / traced["wall_s"]
    metrics["trace.count_errors"] = len(tracer.count_errors)
    return [warmup, base, traced], metrics, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_MAPS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "expcircle" / "__init__.py").is_file():
        print(f"error: no expcircle package under {SRC}; run from the "
              "repository root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from expcircle import cli

    run_dir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup, extra = [], {}
    if args.trace:
        passes, metrics, spans = measure_traced(cli, args, run_dir)
        extra["spans"] = span_records(spans)
    else:
        setup = setup_samples(args.workload)
        passes, metrics = measure(cli, args, run_dir, setup)
        extra["setup_samples"] = setup

    units = dict(PER_LAYER if args.trace else END_TO_END)
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    attempted, failed = tally([r for p in passes for r in p["commands"]])
    env = environment()

    print(f"expcircle benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for i, p in enumerate(passes):
        print(f"pass {i}: wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s")
        for r in p["commands"]:
            status = "FAILED" if r["failed"] else "ok"
            print(f"  {r['label']:<36} {r['seconds']:9.3f} s  exit "
                  f"{r['exit_code']}  {r['ops']} ops  {status}"
                  + (f": {'; '.join(r['why'])}" if r["why"] else ""))
    if setup:
        print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in setup))
    if not args.trace:
        for c, s in command_seconds(passes).items():
            if s:
                print(f"{c + '_s':<44} {s:12.4f} s (per pass)")
    for name, unit in (PER_LAYER if args.trace else END_TO_END):
        print(f"{name:<44} {metrics[name]:12.6g} {unit}")
    print(f"operations: {attempted} attempted, {failed} failed")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    with open(run_dir / "result.json", "w") as fh:
        json.dump({"args": vars(args),
                   "environment": env, "passes": passes, **result, **extra},
                  fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
