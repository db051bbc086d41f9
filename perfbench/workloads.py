"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of (workload, seed, pass index): the same
arguments give the same requests, fiber points and bulk data.  The program's
own ``--seed`` is never varied, because the committed reproduce bytes depend
on it; the workload seed only moves the inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from orbifloer.stacky import build_model, enumerate_box, sector_ell

# reproduce cases run by region-wp; allnon-demo is left out because its
# square region is the whole of region-square
WP_CASES = ("teardrop-a3", "wp-1-3-5-box", "p1aa-a2", "p11a-a3", "p135-region")
FIBER_MODELS = ("teardrop:5", "wp:1,3,5", "wp:1,3,7", "square:2,2,2,2", "square:3,2,3,2", "wp:1,2,3,5")
# lte three times: its latencies are fiber-probe's membership answers
# (query_*), and their spread over verdict paths needs about 200 per run
FIBER_MIX = ("lte", "lte", "lte", "critical", "potential", "discs")

SQUARE_QUERIES = 150  # p90 keeps 15 samples beyond it
WP_QUERIES = 480  # p90 keeps 48 samples beyond it
FIBER_ROUNDS = 4  # each round asks every (model, kind) pair of the mix once


def models(workload: str, smoke: bool) -> tuple:
    """Model presets a workload builds; set-up time is measured on these."""
    if smoke:
        return {"region-square": ("teardrop:3",), "region-wp": ("wp:1,2,2",)}.get(
            workload, ("teardrop:3", "wp:1,2,2")
        )
    if workload == "region-square":
        return ("square:2,2,2,2",)
    if workload == "region-wp":
        return ("teardrop:3", "wp:1,3,5", "wp:1,2,2", "wp:1,1,3", "wp:1,3,7")
    return FIBER_MODELS


def _rng(seed: int, pass_index: int, tag: str) -> random.Random:
    return random.Random(f"{tag}/{seed}/{pass_index}")


def interior_point(m, rng: random.Random) -> tuple:
    """A rational point strictly inside the polytope.

    Every vertex gets a positive weight, so the convex combination lies in
    the open polytope; small integer weights keep denominators short.
    """
    w = [rng.randint(1, 9) for _ in m.vertices]
    total = sum(w)
    return tuple(
        sum(wi * Fraction(v[k]) for wi, v in zip(w, m.vertices)) / total for k in range(m.dim)
    )


def spread_points(m, rng: random.Random, n: int) -> list:
    """n interior points whose vertex weights cover 1..9 evenly.

    Like interior_point, but each vertex's weight takes every value in 1..9
    equally often over the n points (a Latin-hypercube layout with seeded
    pairings), so the query mix covers the polytope the same way for every
    seed and only the points themselves move.
    """
    columns = [[1 + (k * 9) // n for k in rng.sample(range(n), n)] for _ in m.vertices]
    out = []
    for w in zip(*columns):
        total = sum(w)
        out.append(
            tuple(sum(wi * Fraction(v[k]) for wi, v in zip(w, m.vertices)) / total for k in range(m.dim))
        )
    return out


def tie_point(m, rng: random.Random) -> tuple:
    """An interior point where the lowest facet ties with another facet.

    Generic points have a single lowest facet, whose level is one monomial
    and is proven unsolvable at once; ties are where certificates live.
    Starting from a seeded interior point, move along the gradient of
    ell_low - ell_other until the two energies meet; fall back to the
    start when that leaves the polytope.
    """
    u0 = interior_point(m, rng)
    energies = [m.ell(j, u0) for j in range(len(m.facets))]
    low = min(range(len(energies)), key=energies.__getitem__)
    other = rng.choice([j for j in range(len(energies)) if j != low])
    (g0, _), (g1, _) = m.ell_form(low), m.ell_form(other)
    d = [a - b for a, b in zip(g0, g1)]
    slope = sum(x * x for x in d)
    if slope == 0:
        return u0
    t = (energies[other] - energies[low]) / slope
    u = tuple(x + t * dx for x, dx in zip(u0, d))
    return u if m.is_interior(u) else u0


def fmt_point(u) -> str:
    return ",".join(str(Fraction(x)) for x in u)


def bulk_entries(m, u, rng: random.Random) -> list:
    """Seeded bulk data, as (sector index, coefficient, lambda) triples.

    Half the sectors (rounded up) are switched on; which ones, and their
    coefficients, come from the seed.  An activated sector is mostly tied
    to the lowest facet energy at u that a positive lambda can reach, so the
    leading level mixes facets and sectors and every verdict kind can occur;
    otherwise it gets a random lambda.
    """
    energies = sorted(m.ell(j, u) for j in range(len(m.facets)))
    palette = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2)]
    palette += [Fraction(-f.label) for f in m.facets if f.label > 1]
    box = enumerate_box(m)
    out = []
    for i in sorted(rng.sample(range(len(box)), (len(box) + 1) // 2)):
        own = sector_ell(m, box[i], u)
        ties = [e - own for e in energies if e - own > 0]
        if ties and rng.random() < 0.8:
            lam = ties[0]
        else:
            lam = Fraction(rng.randint(1, 12), 12)
        out.append((i, rng.choice(palette), lam))
    return out


def bulk_doc(m, entries) -> dict:
    box = enumerate_box(m)
    return {
        "sectors": [
            {"nu": list(box[i].nu), "c": str(c), "lambda": str(lam)} for i, c, lam in entries
        ]
    }


def region_square(seed: int, pass_index: int, smoke: bool) -> dict:
    preset = "teardrop:3" if smoke else "square:2,2,2,2"
    m = build_model(preset)
    rng = _rng(seed, pass_index, "region-square")
    n = 12 if smoke else SQUARE_QUERIES
    return {
        "requests": [{"kind": "region", "argv": ["region", "--preset", preset]}],
        "queries": [{"region": 0, "u": fmt_point(u)} for u in spread_points(m, rng, n)],
    }


def region_wp(seed: int, pass_index: int, smoke: bool) -> dict:
    cases = ("p1aa-a2",) if smoke else WP_CASES
    requests = [{"kind": "reproduce", "name": c, "argv": ["reproduce", c]} for c in cases]
    if not smoke:
        requests.append({"kind": "region", "argv": ["region", "--preset", "wp:1,3,7"]})
    # queries go to the last region built (wp:1,3,7, 118 pieces): on one
    # region the latencies form one cluster, so p50 and p90 sit inside it
    # instead of on a gap between regions of different sizes
    preset, index = ("wp:1,2,2", 0) if smoke else ("wp:1,3,7", 4)
    m = build_model(preset)
    rng = _rng(seed, pass_index, "region-wp")
    n = 12 if smoke else WP_QUERIES
    return {
        "requests": requests,
        "queries": [{"region": index, "u": fmt_point(u)} for u in spread_points(m, rng, n)],
    }


def fiber_probe(seed: int, pass_index: int, smoke: bool, workdir) -> dict:
    """A stratified request mix: every (model, kind) pair equally often.

    The seed moves values, not the amount of work: in every pass each pair
    gets tie points in rounds 0 and 2 and plain interior points in rounds 1
    and 3, and a bulk file in rounds 0-2 (discs takes none), with half the
    sectors switched on.  The seed picks the points, the sectors, their
    coefficients and lambdas, and the request order.
    """
    rng = _rng(seed, pass_index, "fiber-probe")
    if smoke:
        plan = [("teardrop:3", "critical", 0), ("wp:1,2,2", "lte", 0)]
    else:
        plan = [(p, k, r) for r in range(FIBER_ROUNDS) for p in FIBER_MODELS for k in FIBER_MIX]
        rng.shuffle(plan)
    requests = []
    for rid, (preset, kind, rnd) in enumerate(plan):
        m = build_model(preset)
        u = tie_point(m, rng) if rnd % 2 == 0 else interior_point(m, rng)
        argv = [kind, "--preset", preset, "--u", fmt_point(u)]
        entries = bulk_entries(m, u, rng) if kind != "discs" and rnd < 3 else []
        if entries:
            path = workdir / f"bulk-{pass_index}-{rid}.json"
            path.write_text(json.dumps(bulk_doc(m, entries)))
            argv += ["--bulk", str(path)]
        if kind == "critical":
            argv += ["--t-value", "0.5"]
        requests.append(
            {
                "kind": kind,
                "preset": preset,
                "u": fmt_point(u),
                "bulk": [[i, str(c), str(lam)] for i, c, lam in entries],
                "argv": argv,
            }
        )
    return {"requests": requests, "queries": []}


def generate(workload: str, seed: int, pass_index: int, smoke: bool, workdir) -> dict:
    if workload == "region-square":
        return region_square(seed, pass_index, smoke)
    if workload == "region-wp":
        return region_wp(seed, pass_index, smoke)
    if workload == "fiber-probe":
        return fiber_probe(seed, pass_index, smoke, workdir)
    raise ValueError(f"unknown workload {workload!r}")
