"""One benchmark process: a set-up probe or one pass of a workload.

Run by run.py in a fresh interpreter each time, because a CLI user starts
every invocation with cold in-process caches:

    python3 perfbench/worker.py setup '<spec json>'
    python3 perfbench/worker.py pass '<spec json>'

Prints one JSON object on stdout.  A pass generates its inputs, runs the
timed section (requests through ``orbifloer.cli.main``, then membership
queries through ``orbifloer.region.query_point``), and only then checks
every output with the gate.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


def setup(spec: dict) -> dict:
    import orbifloer.cli  # noqa: F401  (the import is part of what is timed)
    from orbifloer.stacky import build_model, enumerate_box
    from workloads import models

    for preset in models(spec["workload"], spec["smoke"]):
        enumerate_box(build_model(preset))
    return {"done": time.monotonic()}


def _reset_caches():
    # what a fresh CLI process would start with: every functools cache in
    # the package emptied (stacky's box cache among them)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "orbifloer":
            continue
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _call_main(main, argv) -> int:
    try:
        return main(argv) or 0
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1


def run_pass(spec: dict) -> dict:
    import numpy

    import orbifloer.cli as cli
    import orbifloer.region as region
    import workloads
    from spans import Tracer
    from speed import SpeedClock

    root = Path(spec["root"])
    workdir = Path(spec["workdir"])
    inputs = workloads.generate(spec["workload"], spec["seed"], spec["pass"], spec["smoke"], workdir)
    requests, queries = inputs["requests"], inputs["queries"]

    regions = []
    build_region = cli.nondisplaceable_region

    def capture(*args, **kwargs):
        r = build_region(*args, **kwargs)
        regions.append(r)
        return r

    cli.nondisplaceable_region = capture
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()

    outputs, request_at, reports, query_at = [], [], [], []
    with SpeedClock() as clock:
        t_start = time.perf_counter()
        for rid, req in enumerate(requests):
            _reset_caches()
            buf = io.StringIO()
            if tracer:
                tracer.request = rid
            root_span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), root_span:
                code = _call_main(cli.main, req["argv"])
            request_at.append((t0, time.perf_counter()))
            outputs.append((code, buf.getvalue()))
        for qid, q in enumerate(queries):
            u = tuple(Fraction(x) for x in q["u"].split(","))
            r = regions[q["region"]] if q["region"] < len(regions) else None
            if tracer:
                tracer.request = len(requests) + qid
            t0 = time.perf_counter()
            rep = region.query_point(r, u) if r is not None else None
            query_at.append((t0, time.perf_counter()))
            reports.append(rep)
        t_end = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        tracer.remove()
    cli.nondisplaceable_region = build_region

    problems = check(root, requests, outputs, queries, reports, regions)
    request_ms = [clock.seconds(a, b) * 1000 for a, b in request_at]
    if queries:
        query_ms = [clock.seconds(a, b) * 1000 for a, b in query_at]
    else:
        # fiber-probe answers membership pointwise: its lte requests
        query_ms = [ms for req, ms in zip(requests, request_ms) if req["kind"] == "lte"]
    wall_s = clock.seconds(t_start, t_end)
    result = {
        "wall_s": wall_s,
        "raw_wall_s": t_end - t_start,
        "request_ms": request_ms,
        "query_ms": query_ms,
        "rss_mb": rss_mb,
        "attempted": len(requests) + len(queries),
        "failed": len(problems),
        "problems": [msg for msgs in problems.values() for msg in msgs][:20],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer:
        layers = tracer.aggregate(clock.seconds)
        layers["trace.wall_s"] = wall_s
        result["layers"] = layers
        tracer.write(workdir / f"spans-{spec['workload']}-pass{spec['pass']}.jsonl")
    return result


def check(root, requests, outputs, queries, reports, regions) -> dict:
    """Output id -> problems; requests are ids 0.., queries follow them."""
    import gate
    from orbifloer.region import query_point

    reproduce_dir = root / "src" / "orbifloer" / "data" / "reproduce"
    problems: dict = {}
    region_checks = []

    def note(oid, msgs):
        if msgs:
            problems.setdefault(oid, []).extend(msgs)

    for rid, (req, (code, text)) in enumerate(zip(requests, outputs)):
        if code != 0:
            note(rid, [f"request {req['argv']}: exit code {code}"])
        if not text:
            continue
        try:
            if req["kind"] == "reproduce":
                note(rid, gate.reproduce_problems(req["name"], text, reproduce_dir))
                doc = json.loads(text)
                if "region" in doc:
                    region_checks.append(gate.RegionCheck(doc["region"]))
                    note(rid, region_checks[-1].problems)
            elif req["kind"] == "region":
                doc = json.loads(text)
                region_checks.append(gate.RegionCheck(doc))
                note(rid, region_checks[-1].problems)
                note(rid, _digest_problems(req, doc, regions, reproduce_dir, query_point))
            else:
                note(rid, gate.fiber_problems(req, text))
        except Exception as e:  # a malformed output is a failed output
            note(rid, [f"request {req['argv']}: {type(e).__name__}: {e}"])

    if len(region_checks) != len(regions):
        note(0, [f"{len(regions)} regions built, {len(region_checks)} region documents"])
        region_checks = []
    for qid, (q, rep) in enumerate(zip(queries, reports)):
        oid = len(requests) + qid
        if rep is None or q["region"] >= len(region_checks):
            note(oid, [f"query {q['u']}: no region to ask"])
            continue
        u = tuple(Fraction(x) for x in q["u"].split(","))
        note(oid, region_checks[q["region"]].query_problems(rep, u))
    return problems


def _digest_problems(req, doc, regions, reproduce_dir, query_point) -> list:
    """Top-level region requests against what the reproduce suite committed."""
    import gate

    preset = req["argv"][2]
    if preset == "square:2,2,2,2":
        committed = json.loads((reproduce_dir / "allnon-demo.json").read_text())
        asked = [
            gate.query_doc(query_point(regions[0], tuple(Fraction(x) for x in q["u"])))
            for q in committed["square_queries"]
        ]
        return gate.square_digest_problems(doc, asked, committed)
    if preset == "teardrop:3":
        committed = json.loads((reproduce_dir / "teardrop-a3.json").read_text())
        if doc != committed["region"]:
            return ["teardrop:3 region differs from the committed teardrop-a3 region"]
    return []


def main(argv) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    out = setup(spec) if mode == "setup" else run_pass(spec)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
