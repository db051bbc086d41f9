"""Spans recorded from outside the package, at the layer boundaries.

The package imports its collaborators with ``from .x import y``, so a call
from module A to B.f goes through the name ``f`` bound in A.  A wrapper is
therefore installed on that binding, once per calling module, and every
binding of one function records under the same span name.  The exact
arithmetic kernels (``lattice``, ``series``) are not wrapped: they run about
10^5 times per region and a wrapper there would swamp what it measures, so
their cost shows up as the self time of their callers.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter


def _verdict_kind(v) -> str:
    status = v.status.value
    if status == "SolvableCertified":
        return "certified_exact" if v.certificate.exact else "certified_numeric"
    if status == "UnsolvableProven":
        return "proven"
    return "unknown"


def _count_scenarios(tr, result):
    tr.counts["region.scenarios"] += len(result)


def _count_feasible(tr, result):
    tr.counts["region.feasible"] += result is not None


def _count_verdict(tr, result):
    tr.counts[f"ltsolver.verdict.{_verdict_kind(result)}"] += 1


def _count_roots(tr, result):
    tr.counts["potential.critical_points.roots"] += len(result)


def _count_bytes(tr, result):
    tr.counts["cli.dump_json.bytes"] += len(result.encode())


# span name -> (calling modules whose binding is wrapped, result observer)
SPANS = {
    "stacky.build_model": (("cli",), None),
    "stacky.enumerate_box": (("cli", "region", "ltsolver", "potential", "stacky"), None),
    "region.nondisplaceable_region": (("cli",), None),
    "region.enumerate_scenarios": (("region",), _count_scenarios),
    "region.scenario_region": (("region",), _count_feasible),
    "region.scenario_lts": (("region",), None),
    "region.query_point": (("cli", "region"), None),
    "ltsolver.lts_signature": (("region",), None),
    "ltsolver.solve": (("region", "cli"), _count_verdict),
    "ltsolver.stratify": (("cli",), None),
    "ltsolver.build_lts": (("cli",), None),
    "potential.critical_points": (("cli",), _count_roots),
    "potential.smooth_leading_potential": (("cli", "potential"), None),
    "potential.bulk_leading_potential": (("cli",), None),
    "disc.h2_generators": (("cli",), None),
    "cli.cmd_region": (("cli",), None),
    "cli.dump_json": (("cli",), _count_bytes),
}
# opened by the benchmark itself around each request
ROOT_SPAN = "cli.main"
COUNTS = (
    "region.scenarios",
    "region.feasible",
    "ltsolver.verdict.certified_exact",
    "ltsolver.verdict.certified_numeric",
    "ltsolver.verdict.proven",
    "ltsolver.verdict.unknown",
    "potential.critical_points.roots",
    "cli.dump_json.bytes",
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in list(SPANS) + [ROOT_SPAN]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "B" if name.endswith(".bytes") else "count"
    units["region.feasible_ratio"] = "ratio"
    units["ltsolver.cache_hit_ratio"] = "ratio"
    units["ltsolver.solve.p50_ms"] = "ms"
    units["trace.wall_s"] = "s"
    units["trace.spans"] = "count"
    return units


class Tracer:
    """In-memory span recorder: (name, start, end, parent, request id)."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list = []
        self._undo: list = []

    def install(self):
        for name, (callers, observe) in SPANS.items():
            attr = name.split(".", 1)[1]
            for caller in callers:
                mod = importlib.import_module(f"orbifloer.{caller}")
                fn = getattr(mod, attr)
                setattr(mod, attr, self._wrap(fn, name, observe))
                self._undo.append((mod, attr, fn))

    def remove(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _wrap(self, fn, name, observe):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name):
        return _Span(self, name)

    def aggregate(self, seconds) -> dict:
        """Per-name calls, total and self seconds, plus counts.

        ``seconds(a, b)`` converts a perf_counter interval to reported
        seconds; a span's self time is its own time outside its children,
        scaled like the span.
        """
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        solve_ms = []
        region_solves = 0
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for k, (name, t0, t1, parent, _) in enumerate(self.spans):
            dur = seconds(t0, t1)
            calls[name] += 1
            total[name] += dur
            self_s[name] += (t1 - t0 - child[k]) * (dur / (t1 - t0) if t1 > t0 else 1.0)
            if name == "ltsolver.solve":
                solve_ms.append(dur * 1000)
                region_solves += parent >= 0 and self.spans[parent][0] == "region.nondisplaceable_region"
        out = {}
        for name in list(SPANS) + [ROOT_SPAN]:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        attempted = calls["region.scenario_region"]
        feasible = self.counts["region.feasible"]
        out["region.feasible_ratio"] = feasible / attempted if attempted else 0.0
        # solves made while building a region, against the scenarios they
        # could have been asked for; pointwise solves never hit the cache
        out["ltsolver.cache_hit_ratio"] = 1 - region_solves / feasible if feasible else 0.0
        out["ltsolver.solve.p50_ms"] = statistics.median(solve_ms) if solve_ms else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        with open(path, "w") as f:
            for name, t0, t1, parent, req in self.spans:
                f.write(json.dumps([name, t0, t1, parent, req]) + "\n")


class _Span:
    __slots__ = ("tr", "name", "idx", "t0")

    def __init__(self, tr, name):
        self.tr = tr
        self.name = name

    def __enter__(self):
        tr = self.tr
        self.idx = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.idx)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        tr = self.tr
        tr._stack.pop()
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans[self.idx] = (self.name, self.t0, t1, parent, tr.request)
        return False
