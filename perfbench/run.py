"""orbifloer benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload region-square --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up time is probed in several fresh interpreters.  Then
passes of the workload, each in a fresh interpreter and one at a time, run
until ``--seconds`` have been measured (at least one pass).  Every output is
checked by the gate in the pass that produced it.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  A table for people comes first; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output passed the gate, and 2 when the checkout
has no package to measure.  ``--smoke`` swaps in tiny inputs for the
benchmark's own tests.  See perfbench/README.md for the metric map.
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
from pathlib import Path

from spans import metric_units
from speed import speed_now

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("region-square", "region-wp", "fiber-probe")
SETUP_PROBES = 7
RUN_LIMIT_S = 170  # every child is stopped by then, so a run ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(xs, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(xs)
    k = (len(xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread per process, so one pass never loads more than one core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """Runs worker.py processes one at a time against a shared deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, mode: str, spec: dict):
        """(started, JSON result) or (started, None) when the child failed."""
        remaining = self.deadline - time.monotonic()
        started = time.monotonic()
        if remaining <= 0:
            return started, None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), mode, json.dumps(spec)],
                stdout=subprocess.PIPE,
                env=self.env,
                cwd=ROOT,
                timeout=remaining,
                text=True,
            )
        except subprocess.TimeoutExpired:
            return started, None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return started, None
        return started, json.loads(lines[-1])


def end_to_end_metrics(setups, passes, table) -> dict:
    requests = [ms for p in passes for ms in p["request_ms"]]
    queries = [ms for p in passes for ms in p["query_ms"]]
    raw_wall = statistics.median(p["raw_wall_s"] for p in passes)
    values = {
        "setup_s": (statistics.median(setups) if setups else 0.0, f"{len(setups)} probes"),
        "wall_s": (
            statistics.median(p["wall_s"] for p in passes),
            f"{len(passes)} passes, raw {raw_wall:.2f} s",
        ),
        "request_p50_ms": (percentile(requests, 0.5), f"n={len(requests)}"),
        "request_p90_ms": (percentile(requests, 0.9), f"n={len(requests)}"),
        "query_p50_ms": (percentile(queries, 0.5), f"n={len(queries)}"),
        "query_p90_ms": (percentile(queries, 0.9), f"n={len(queries)}"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "median of passes"),
    }
    for k, (v, note) in values.items():
        table.append(f"{k:16} {v:14.4f} {END_TO_END[k]:6} {note}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in values.items()}


def layer_metrics(passes, table) -> dict:
    """Median over the passes of every per-layer figure, and its table."""
    units = metric_units()
    layers = {k: statistics.median(p["layers"][k] for p in passes) for k in units}
    table.append(f"{'span':38} {'calls':>9} {'s':>10} {'self_s':>10}")
    names = sorted(
        (k[: -len(".self_s")] for k in layers if k.endswith(".self_s")),
        key=lambda n: -layers[f"{n}.self_s"],
    )
    for n in names:
        if layers[f"{n}.calls"]:
            table.append(
                f"{n:38} {layers[n + '.calls']:9.0f} {layers[n + '.s']:10.4f} "
                f"{layers[n + '.self_s']:10.4f}"
            )
    for k, v in layers.items():
        if not k.endswith((".calls", ".s", ".self_s")):
            table.append(f"{k:38} {v:12.6g} {units[k]}")
    table.append(
        f"traced wall_s {layers['trace.wall_s']:.4f} s: the tracing overhead is its "
        "excess over wall_s of an untraced run"
    )
    return {k: {"value": v, "unit": units[k]} for k, v in layers.items()}


def run(args) -> tuple:
    """Run one workload; returns (result line, table lines)."""
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    child = Child(time.monotonic() + RUN_LIMIT_S)
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "root": str(ROOT),
        "workdir": str(workdir),
    }

    # one core for the parent and every child it starts: the speed probe
    # taken here then describes the core the set-up probe runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups, broken = [], 0
    for _ in range(2 if args.smoke else SETUP_PROBES):
        speed = speed_now()
        started, out = child.run("setup", spec)
        if out is None:
            broken += 1
        else:
            setups.append((out["done"] - started) * speed)

    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < args.seconds:
        _, out = child.run("pass", dict(spec, **{"pass": len(passes)}))
        if out is None:
            broken += 1
            break
        passes.append(out)

    attempted = sum(p["attempted"] for p in passes) + broken
    failed = sum(p["failed"] for p in passes) + broken
    correct = failed == 0 and bool(setups) and bool(passes)

    table = [f"machine: {machine()} numpy={passes[0]['numpy'] if passes else '?'}"]
    table.append(
        f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
        f"{attempted} outputs checked, {len(setups)} set-up probes"
    )
    for p in passes:
        table += [f"  FAILED: {msg}" for msg in p["problems"]]
    if broken:
        table.append(f"  FAILED: {broken} benchmark processes did not finish")

    if not passes:
        metrics = {}
    elif args.trace:
        metrics = layer_metrics(passes, table)
    else:
        metrics = end_to_end_metrics(setups, passes, table)
        # always 0 on a correct run, so it is not a bounded metric; the
        # result line carries it as failed / attempted
        table.append(f"{'fail_ratio':16} {failed / max(attempted, 1):14.4f} {'ratio':6} {failed}/{attempted}")

    line = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    return line, table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "orbifloer" / "cli.py").is_file():
        sys.stderr.write(f"no orbifloer package under {ROOT / 'src'}; run from a source checkout\n")
        return 2
    line, table = run(args)
    for row in table:
        print(row)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
