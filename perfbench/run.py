#!/usr/bin/env python3
"""End-to-end benchmark of the charcorr CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh
``python -m charcorr.cli`` process, spawned one at a time (a closed loop with
one client), because the package keeps process-wide caches that an
in-process repeat would find warm.  Wall time, CPU time and peak RSS come from
``os.wait4`` in perfbench/spawn.py; every output is checked against a known
answer.  Before each program sample the run times a fixed pure-Python
computation (perfbench/reference.py) and an interpreter that only imports
``charcorr.cli`` (for ``setup_s``).  Program times are reported as multiples
of the reference's time: on a shared host the speed of Python drifts by a
third and more over minutes, and the ratio cancels that drift.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics, taken from
one more fresh process run under ``perfbench/tracer.py``.  Lines before it give
the environment, quartiles and sample counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import GOLDEN, ROOT, WORKLOADS, Check, Workload

SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
SPAWN = HERE / "spawn.py"
CLI = [sys.executable, "-m", "charcorr.cli"]
IMPORT = [sys.executable, "-c", "import charcorr.cli"]
REFERENCE = [sys.executable, str(HERE / "reference.py")]


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool
    why: str | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_sample(argv: list[str], check: Check, tag: str) -> Sample:
    """Run one child through spawn.py and check what it printed."""
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    proc = subprocess.run(
        [sys.executable, "-S", "-I", str(SPAWN), str(out_path), str(err_path)] + argv,
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    wall, cpu, rss_kib, code = proc.stdout.split()
    if int(code) != 0:
        why = f"exit {code}: {err_path.read_text(errors='replace').strip()[-300:]}"
    else:
        try:
            why = check(out_path.read_bytes())
        except (ValueError, KeyError, TypeError) as exc:
            why = f"unreadable output: {exc!r}"
    return Sample(float(wall), float(cpu), int(rss_kib) / 1024, why is None, why)


def cli_argv(w: Workload, seed: int, sample: int) -> list[str]:
    group_path = None
    data = w.inputs(seed, sample)
    if data is not None:
        group_path = WORK / f"{w.name}.group.json"
        group_path.write_bytes(data)
    return w.argv(group_path)


def probe_program() -> str:
    """Fail unless charcorr imports from this checkout; return its kernel backend."""
    code = "import charcorr.kernels as k, charcorr; print(k.BACKEND); print(charcorr.__file__)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not Path(lines[1]).is_relative_to(SRC):
        raise SystemExit(f"charcorr does not import from {SRC}: {proc.stderr.strip()[-300:]}")
    return lines[0]


def run_helper(argv: list[str], tag: str) -> Sample:
    """Run one of the benchmark's own children, which must exit 0."""
    s = run_sample(argv, lambda out: None, tag)
    if not s.ok:
        raise SystemExit(f"{' '.join(argv[1:])} failed: {s.why}")
    return s


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def run_loop(w: Workload, seed: int, seconds: float) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """Program samples, reference samples and import-only samples, interleaved.

    Each round runs the reference computation, an interpreter that only
    imports charcorr.cli, and one program sample, until ``seconds`` have
    passed, so that all three see the same stretches of the host's drifting
    speed.  One untimed import first writes the bytecode caches, as an
    installed package has them.
    """
    run_helper(IMPORT, "setup")
    samples: list[Sample] = []
    refs: list[Sample] = []
    setup: list[Sample] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        refs.append(run_helper(REFERENCE, "reference"))
        setup.append(run_helper(IMPORT, "setup"))
        samples.append(run_sample(CLI + cli_argv(w, seed, len(samples)), w.check, w.name))
    return samples, refs, setup


def traced_metrics(w: Workload, seed: int, untraced_wall: float) -> tuple[dict, Sample]:
    trace_path = WORK / f"{w.name}.trace.json"
    trace_path.unlink(missing_ok=True)
    argv = [sys.executable, str(TRACER), str(trace_path)] + cli_argv(w, seed, 0)
    traced = run_sample(argv, w.check, w.name)
    if not trace_path.exists():
        raise SystemExit(f"the traced run wrote no trace: {traced.why}")
    trace = json.loads(trace_path.read_text())
    values = {"trace.overhead": traced.wall_s / untraced_wall}
    values.update(trace["metrics"])
    return values, traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = WORKLOADS[args.workload]
    for name in ("verify_all.json", "remark648.json"):
        if not (GOLDEN / name).is_file():
            raise SystemExit(f"missing known answer {GOLDEN / name}")
    WORK.mkdir(exist_ok=True)
    backend = probe_program()

    samples, refs, setup = run_loop(w, args.seed, args.seconds)
    good = [s for s in samples if s.ok] or samples  # failed runs never count as fast ones

    summary = {
        "wall_s": quartiles([s.wall_s for s in good]),
        "cpu_s": quartiles([s.cpu_s for s in good]),
        "peak_rss_mb": quartiles([s.peak_rss_mb for s in good]),
        "setup_s": quartiles([s.wall_s for s in setup]),
        "reference_wall_s": quartiles([s.wall_s for s in refs]),
        "reference_cpu_s": quartiles([s.cpu_s for s in refs]),
    }
    values = {
        "wall_vs_ref": summary["wall_s"]["median"] / summary["reference_wall_s"]["median"],
        "cpu_vs_ref": summary["cpu_s"]["median"] / summary["reference_cpu_s"]["median"],
        "peak_rss_mb": summary["peak_rss_mb"]["median"],
        "setup_s": summary["setup_s"]["median"],
        "ok_frac": sum(s.ok for s in samples) / len(samples),
    }
    if args.trace:
        values, traced = traced_metrics(w, args.seed, summary["wall_s"]["median"])
        samples.append(traced)

    failures = [s.why for s in samples if not s.ok]
    for why in failures[:3]:
        print(f"failed run: {why}", file=sys.stderr)
    env = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": len(samples),
        "setup_runs": len(setup),
        "reference_runs": len(refs),
        "backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"environment": env, "quartiles": summary}, sort_keys=True))
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise SystemExit(f"benchmark produced no value for metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
