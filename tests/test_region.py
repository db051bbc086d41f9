"""Scenario enumeration, exact feasibility, and region assembly."""

import itertools
import math
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbifloer import ltsolver, region, series
from orbifloer.errors import InputError, TooManyScenarios
from orbifloer.lattice import cleared, primitive
from orbifloer.ltsolver import Solvability, lts_signature, solve
from orbifloer.region import (
    Constraint,
    enumerate_scenarios,
    interval_union,
    nondisplaceable_region,
    piece_geometry,
    query_point,
    scenario_constraints,
    scenario_lts,
    scenario_region,
)
from orbifloer.series import render_poly
from orbifloer.stacky import build_model, enumerate_box


def gt(coeffs, const):
    return Constraint(tuple(cleared([*coeffs, Fraction(const)])), ">", "level", "t")


def eq(coeffs, const):
    return Constraint(tuple(cleared([*coeffs, Fraction(const)])), "==", "level", "t")


def feasible_witness(cons, n):
    """region._system then region._solve on conditions, their rows cleared of denominators."""
    system = region._system([replace(c, row=tuple(cleared(c.row))) for c in cons], n)
    return None if system is None else region._solve(*system, n)


def test_enumerate_teardrop():
    m = build_model("teardrop:3")
    ss = enumerate_scenarios(m)
    # 1 level: facets {0},{1},{0,1} x sector subsets {},{0},{1},{0,1} = 12;
    # 2 levels need a second independent direction, impossible in dim 1
    assert len(ss) == 12
    assert [s.serial for s in ss] == list(range(12))
    assert all(s.K == 1 for s in ss)


def test_enumerate_limit():
    m = build_model("wp:1,3,5")
    with pytest.raises(TooManyScenarios):
        enumerate_scenarios(m, limit=10)


def test_enumerate_limit_counts_candidates():
    # the limit bounds span-valid candidates, not the 535,537 product points
    m = build_model("square:2,2,2,2")
    assert len(enumerate_scenarios(m, limit=23364)) == 23364
    with pytest.raises(TooManyScenarios, match="23364 scenario candidates"):
        enumerate_scenarios(m, limit=23363)


def _tuples(scenarios):
    return [(s.serial, s.levels, s.excluded) for s in scenarios]


@pytest.mark.parametrize(
    "preset", ["teardrop:5", "wp:1,3,5", "square:2,2,1,1", "interval:3,2", "wp:1,2,3,5"]
)
def test_enumerate_matches_product_oracle(preset):
    m = build_model(preset)
    fdirs = [f.stacky_vector for f in m.facets]
    sdirs = [b.nu for b in enumerate_box(m)]
    want = oracles.product_scenarios(fdirs, sdirs, m.dim, 3)
    assert _tuples(enumerate_scenarios(m, 3)) == want
    # K ascends, so the candidates of at most two levels come first
    assert _tuples(enumerate_scenarios(m, 2)) == [t for t in want if len(t[1]) <= 2]


def _brute_force_region(m):
    """The region without pruning: every candidate through scenario_region,
    and every feasible one whose system the coloop oracle does not refute
    through the signature cache and solve.  Also returns the feasible
    candidates the oracle refutes."""
    pieces, refuted, cache = [], [], {}
    for s in enumerate_scenarios(m):
        poly = scenario_region(m, s)
        if poly is None:
            continue
        lts = scenario_lts(m, s)
        if oracles.coloop_refutes(lts):
            refuted.append(s)
            continue
        sig, symbols = lts_signature(lts)[0], oracles.signature_by_terms(lts)[1]
        if sig not in cache:
            cache[sig] = (solve(lts), symbols)
        verdict = region._renamed(*cache[sig], symbols)
        if verdict.status is Solvability.SolvableCertified:
            pieces.append((s.serial, poly.witness, verdict))
    return pieces, refuted


@pytest.mark.parametrize("preset", ["wp:1,3,5", "square:2,2,1,1"])
def test_pruned_region_equals_brute_force(preset, monkeypatch):
    m = build_model(preset)
    want, refuted = _brute_force_region(m)
    one_member = [s for s in refuted if any(len(tags) == 1 for tags in s.levels)]
    # the one-member rule is the special case; wider coloop levels occur too
    assert one_member and len(one_member) < len(refuted)
    for s in one_member:
        assert solve(scenario_lts(m, s)).status is Solvability.UnsolvableProven, s.serial
    examined = []
    real = region.scenario_region

    def counted(m, s, *system):
        examined.append(s.serial)
        return real(m, s, *system)

    monkeypatch.setattr(region, "scenario_region", counted)
    r = nondisplaceable_region(m)
    assert [(p.scenario.serial, p.polyhedron.witness, p.verdict) for p in r.pieces] == want
    # only feasible candidates the oracle does not refute reach scenario_region
    feasible = {s.serial for s in enumerate_scenarios(m) if real(m, s) is not None}
    assert examined == sorted(feasible - {s.serial for s in refuted})


def _coloop(levels, dirs):
    """coloop_leaf of a hand-built span tree: dirs[p] placed at level levels[p]."""
    tree = region._SpanTree(dirs, 0, len(dirs[0]), max(levels))
    state = tree.root
    for p, v in enumerate(levels):
        state = tree.child(state, p, v)
    return tree.coloop_leaf(list(levels), state)


def test_coloop_groups_equal_residues():
    # members with one direction modulo the span below share a weight and
    # may cancel (y + c*y vanishes at c = -1), so only a lone member can
    # be a coloop; on one level the span below is zero
    assert not _coloop([1, 1], [(1, 0), (1, 0)])
    assert not _coloop([1, 1, 1, 1], [(1, 0), (1, 0), (0, 1), (0, 2)])
    assert _coloop([1, 1, 1], [(1, 0), (0, 1), (0, 2)])
    assert _coloop([1], [(1, 0)])
    # a circuit has no coloop, and a member inside the span below joins
    # no relation: over the first level's span of e3, the second level
    # reads (0,0,0), (1,0,0), (2,0,0)
    assert not _coloop([1, 1, 1], [(1, 0), (0, 1), (1, 1)])
    below = [(0, 0, 1), (0, 0, 2)]
    assert not _coloop([1, 1, 2, 2, 2], below + [(0, 0, 5), (1, 0, 0), (2, 0, 0)])
    # over the span of (1, 0), (1, 3) and (5, 3) are one group; alone,
    # (1, 3) is a coloop
    below = [(1, 0), (2, 0)]
    assert not _coloop([1, 1, 2, 2, 2], below + [(1, 3), (5, 3), (2, 0)])
    assert _coloop([1, 1, 2, 2], below + [(1, 3), (2, 0)])


def test_coloop_leaf_matches_the_system_oracle():
    # on every span-valid leaf, pruned or not, the span test agrees with
    # the coloop oracle read off the leaf's leading term system
    leaves = 0
    for preset in ["teardrop:3", "wp:1,2,2", "wp:1,1,3", "wp:1,3,5", "square:2,2,1,1"]:
        m = build_model(preset)
        nf = len(m.facets)
        n = nf + len(enumerate_box(m))
        seen = []

        def grow(tree, digits, state, ctx):
            if len(digits) == n:
                s = region._scenario(-1, digits, nf, tree.K)
                seen.append((s, tree.coloop_leaf(digits, state)))
            return ctx

        for _ in region._scenario_walk(m, 2, grow):
            pass
        for s, hit in seen:
            assert hit == oracles.coloop_refutes(scenario_lts(m, s)), (preset, s.levels)
        leaves += len(seen)
    assert leaves == 1736


@given(oracles.equality_systems())
@settings(max_examples=200, deadline=None)
def test_pivots_match_sympy_rref(system):
    n, rows = system
    got = region._system([Constraint(tuple(row), "==", "level", "t") for row in rows], n)
    if not rows:
        assert got == (([], []), {})
        return
    reduced, pivots = sympy.Matrix(rows).rref()
    if n in pivots:  # a row reads 0 = nonzero constant
        assert got is None
        return
    (subs, pivot_cols), table = got
    assert pivot_cols == list(pivots) and table == {}
    for row, k, want in zip(subs, pivot_cols, reduced.tolist()):
        assert row[k] > 0 and all(row[j] == 0 for j in pivots if j != k)
        assert [Fraction(x, row[k]) for x in row] == want
    # the pivot solve gives a point on every equality
    point = list(region._solve((subs, pivot_cols), table, n)) + [1]
    assert all(sum(a * x for a, x in zip(row, point)) == 0 for row in rows)


def _walk_refuted(m, max_levels=2):
    """The region of m and the leaves its walk refutes by a coloop level.

    The leaves come back as Scenarios with serial -1, in walk order.
    """
    refuted = []
    real = region._SpanTree.coloop_leaf

    def recording(tree, digits, state):
        hit = real(tree, digits, state)
        if hit:
            refuted.append(region._scenario(-1, digits, len(m.facets), tree.K))
        return hit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region._SpanTree, "coloop_leaf", recording)
        r = nondisplaceable_region(m, max_levels)
    return r, refuted


@pytest.mark.parametrize(
    "preset, max_levels",
    [("teardrop:3", 2), ("wp:1,3,5", 2), ("square:2,2,1,1", 2), ("wp:1,2,3,5", 3)],
)
def test_row_systems_match_rewrite_oracle(preset, max_levels, monkeypatch):
    # every feasible candidate, coloop leaves included; wp:1,2,3,5 has
    # 34,448 candidates, so there the walk's feasible leaves, with the
    # coloop prune switched off (it leaves one)
    m = build_model(preset)
    if preset == "wp:1,2,3,5":
        monkeypatch.setattr(region._SpanTree, "coloop_leaf", lambda tree, digits, state: False)
        walk = region._scenario_walk(m, max_levels, region._piece_candidates(m))
        leaves = [s for s, _ in walk]
    else:
        leaves = enumerate_scenarios(m, max_levels)
    pairs = []
    for s in leaves:
        if scenario_region(m, s) is None:
            continue
        lts = scenario_lts(m, s)
        key, symbols = lts_signature(lts)
        want, want_terms = oracles.scenario_lts_by_rewrite(m, s)
        assert lts == want and oracles.lts_terms(lts) == want_terms, s.serial
        sig, want_symbols = oracles.signature_by_terms(want)
        assert symbols == want_symbols
        pairs.append((key, sig))
    assert len(pairs) > 10
    assert oracles.one_to_one(pairs)


def test_scenario_lts_takes_ranks_from_the_walk(monkeypatch):
    m = build_model("wp:1,3,5")
    s = next(s for s in enumerate_scenarios(m) if s.K == 2 and scenario_region(m, s))
    want = oracles.lts_terms(scenario_lts(m, s))

    def refuse(rows, ncols):
        raise AssertionError("a level rank or relation was computed")

    monkeypatch.setattr(ltsolver, "kernel", refuse)
    assert oracles.lts_terms(scenario_lts(m, s)) == want


def test_coloop_prunes_a_root_at_infinity():
    # y2 * df/dy2 = c5*y2 never vanishes, yet a float search finds a
    # "root" drifting to y2 ~ 0 inside the certificate's window
    m = build_model("square:2,2,2,2")
    s = enumerate_scenarios(m, 1)[18]
    assert s.levels == ((("facet", 3), ("sector", 3), ("sector", 5)),)
    lts = scenario_lts(m, s)
    assert render_poly(lts.levels[0].poly) == "c5*y2 + c3*y1 + 1*y1^2"
    assert oracles.coloop_refutes(lts)
    assert scenario_region(m, s) is not None
    r, refuted = _walk_refuted(m, 1)
    assert s.levels in [t.levels for t in refuted]
    assert 18 not in [p.scenario.serial for p in r.pieces]


def test_coloop_refutes_dependent_mixed_level():
    # the one-level system of test_solve_dependent_mixed_level_unknown:
    # the sector (0,-1) and facet 2 span one line, so facet 0 is a coloop
    m = build_model("wp:1,1,3")
    s = enumerate_scenarios(m, 1)[12]
    assert s.levels == ((("facet", 0), ("facet", 2), ("sector", 0)),)
    assert enumerate_box(m)[0].nu == (0, -1)
    lts = scenario_lts(m, s)
    assert render_poly(lts.levels[0].poly) == "c0*y2^-1 + 1*y2 + 1*y1"
    assert oracles.coloop_refutes(lts)
    assert solve(lts).status is Solvability.UnknownLikelyUnsolvable
    assert scenario_region(m, s) is not None
    _, refuted = _walk_refuted(m, 1)
    assert s.levels in [t.levels for t in refuted]


@pytest.mark.parametrize(
    "preset", ["square:2,2,2,2", "wp:1,3,5", "wp:1,3,7", "square:2,2,1,1", "wp:1,1,3", "teardrop:5"]
)
def test_coloop_refuted_leaves_get_no_exact_certificate(preset):
    # a coloop proof and an exact root cannot both hold; every refuted
    # leaf's system is also refuted by the oracle
    m = build_model(preset)
    _, refuted = _walk_refuted(m)
    assert refuted
    systems = {}
    for s in refuted:
        lts = scenario_lts(m, s)
        systems.setdefault(lts_signature(lts)[0], lts)
    for lts in systems.values():
        assert oracles.coloop_refutes(lts)
        cert = solve(lts).certificate
        assert cert is None or not cert.exact


def test_scenario_constraints_tagged():
    m = build_model("teardrop:3")
    ss = enumerate_scenarios(m)
    two = next(
        s
        for s in ss
        if len(s.levels) == 1
        and {k for k, _ in s.levels[0]} == {"facet"}
        and len(s.levels[0]) == 2
    )
    cons = scenario_constraints(m, two)
    kinds = sorted(c.kind for c in cons)
    assert kinds == ["interior", "interior", "level"]
    level = next(c for c in cons if c.kind == "level")
    assert level.rel == "=="
    # ell_0 = 3u+1, ell_1 = 1-u equal only at u = 0
    assert oracles.condition_value(level, (Fraction(0),)) == 0
    assert oracles.condition_value(level, (Fraction(1, 10),)) != 0


def test_sector_constraints_name_their_sector():
    m = build_model("wp:1,3,5")
    box = enumerate_box(m)
    for s in enumerate_scenarios(m)[:200]:
        want = [
            f"ell_nu{box[i].nu} < S{l + 1}"
            for l, tags in enumerate(s.levels)
            for k, i in tags
            if k == "sector"
        ]
        got = [c.label for c in scenario_constraints(m, s) if c.kind == "sector"]
        assert got == want


def test_feasible_witness_box():
    cons = [gt([1, 0], 0), gt([0, 1], 0), gt([-1, 0], 1), gt([0, -1], 1)]
    w = feasible_witness(cons, 2)
    assert w is not None and all(oracles.condition_holds(c, w) for c in cons)


def test_feasible_witness_empty():
    assert feasible_witness([gt([1], 0), gt([-1], 0)], 1) is None
    # equalities can contradict on their own
    assert feasible_witness([eq([1, 1], 0), eq([1, 1], 1)], 2) is None


def test_feasible_witness_equality_elimination():
    cons = [eq([1, -1], 0), gt([1, 0], 0), gt([-1, 0], 1), gt([0, 1], Fraction(-1, 4))]
    w = feasible_witness(cons, 2)
    assert w is not None and w[0] == w[1] and Fraction(1, 4) < w[0] < 1


def test_feasible_witness_random_agrees_with_sampling():
    # sampling cannot prove emptiness, but a witnessed system must accept
    # its witness, and a refused system must refuse every sample point
    rng = random.Random(7)
    grid = [Fraction(k, 4) for k in range(-8, 9)]
    for _ in range(120):
        cons = [
            gt([rng.randint(-2, 2), rng.randint(-2, 2)], Fraction(rng.randint(-4, 4), 2))
            for _ in range(rng.randint(1, 5))
        ]
        w = feasible_witness(cons, 2)
        if w is None:
            assert not any(
                all(oracles.condition_holds(c, (x, y)) for c in cons) for x in grid for y in grid
            )
        else:
            assert all(oracles.condition_holds(c, w) for c in cons)


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_rows = st.lists(
    st.tuples(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        _small,
        st.sampled_from([">", ">", "=="]),
    ),
    min_size=1,
    max_size=6,
)
_scales = st.lists(
    st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
    min_size=6,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(rows=_rows, scales=_scales, data=st.data())
def test_feasible_witness_invariant_under_positive_row_scaling(rows, scales, data):
    cons = [Constraint((*g, c), rel, "level", "t") for g, c, rel in rows]
    w = feasible_witness(cons, 3)
    if w is not None:
        assert all(oracles.condition_holds(c, w) for c in cons)
    # Fraction rows with denominators of their own, cleared row by row
    scaled = [replace(c, row=tuple(q * x for x in c.row)) for c, q in zip(cons, scales)]
    assert feasible_witness(scaled, 3) == w
    # the Fourier-Motzkin memo is keyed on the binding rows: row order,
    # repeated rows and looser parallel rows must not move the witness
    order = data.draw(st.permutations(range(len(cons))))
    repeats = data.draw(st.lists(st.sampled_from(scaled), max_size=3))
    looser = [
        replace(c, row=(*c.row[:-1], c.row[-1] + slack))
        for c, slack in zip(
            scaled, data.draw(st.lists(_small.filter(lambda x: x > 0), max_size=6))
        )
        if c.rel == ">"
    ]
    assert feasible_witness([scaled[k] for k in order] + repeats + looser, 3) == w


def _binding_oracle(rows):
    """Per primitive direction, the row of least constant over its gcd."""
    best = {}
    for row in rows:
        g = math.gcd(*row[:-1])
        if g == 0:
            if row[-1] <= 0:
                return None
            continue
        d = tuple(x // g for x in row[:-1])
        q = Fraction(row[-1], g)
        best[d] = min(best.get(d, q), q)
    return frozenset((*(x * q.denominator for x in d), q.numerator) for d, q in best.items())


_int_rows = st.lists(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=8
)


@settings(max_examples=300, deadline=None)
@given(rows=_int_rows, data=st.data())
def test_folding_rows_one_at_a_time_gives_the_binding_rows(rows, data):
    # the walk folds primitive rows (_substitute's) one per node, each into
    # a copy of its parent's table
    rows = [tuple(primitive(r)) for r in rows]
    want = region._binding(rows)
    assert want == _binding_oracle(rows)
    repeats = data.draw(st.lists(st.sampled_from(rows), max_size=4))
    slack = data.draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
    looser = [(*r[:-1], r[-1] + k) for r, k in zip(rows, slack)]
    folds = rows + repeats + looser
    scales = data.draw(st.lists(st.integers(1, 5), min_size=len(folds), max_size=len(folds)))
    scaled = [tuple(q * x for x in r) for r, q in zip(folds, scales)]
    table, got = {}, None
    for row in data.draw(st.permutations(scaled)):
        table = dict(table)
        if not region._fold(table, row):
            break
    else:
        # a positive multiple folded first stands for its primitive row
        got = frozenset(tuple(primitive(list(r))) for _, r in table.values())
    assert got == want


@pytest.mark.parametrize(
    "preset, max_levels",
    [("teardrop:3", 2), ("wp:1,3,5", 2), ("square:2,2,1,1", 2), ("wp:1,2,3,5", 3)],
)
def test_carried_system_gives_the_leaf_region(preset, max_levels, monkeypatch):
    # every leaf the walk yields: its carried system is the one built from
    # its constraints, and scenario_region gives the same constraints in
    # the same order and the same witness with it as without; on the 3-d
    # model the coloop prune is off, as in test_row_systems_match_rewrite_oracle
    m = build_model(preset)
    if m.dim == 3:
        monkeypatch.setattr(region._SpanTree, "coloop_leaf", lambda tree, digits, state: False)
    leaves = list(region._scenario_walk(m, max_levels, region._piece_candidates(m)))
    assert leaves
    for s, (system, _, _) in leaves:
        built = region._system(scenario_constraints(m, s), m.dim)
        assert system[0] == built[0], s.serial
        assert system[1] == built[1], s.serial
        carried = scenario_region(m, s, system)
        assert carried is not None and carried == scenario_region(m, s), s.serial


def test_scenario_constraints_match_row_by_row_oracle():
    for preset, count in [("wp:1,3,5", None), ("square:2,2,2,2", 2000)]:
        m = build_model(preset)
        shared: dict = {}
        for s, _ in itertools.islice(region._scenario_walk(m, 2), count):
            got = scenario_constraints(m, s)
            assert got == oracles.scenario_constraints_row_by_row(m, s), s.serial
            # each Constraint is built once per model
            assert all(shared.setdefault(c, c) is c for c in got), s.serial
        assert count is None or s.serial == count - 1


def test_witness_self_check_survives_python_O():
    # handed another leaf's system, scenario_region finds a witness that
    # breaks this scenario's constraints; an assert statement would let it
    # through under -O
    code = """
import sys
from orbifloer import region
from orbifloer.stacky import build_model
m = build_model("wp:1,3,5")
leaves = list(region._scenario_walk(m, 2, region._piece_candidates(m)))
polys = [region.scenario_region(m, s) for s, _ in leaves]
s, other = next(
    (s, ctx[0]) for (s, _), poly in zip(leaves, polys) for (_, ctx), q in zip(leaves, polys)
    if not poly.contains(q.witness)
)
try:
    region.scenario_region(m, s, other)
except AssertionError as e:
    print(sys.flags.optimize, "refused", e)
"""
    cmd = [sys.executable, "-O", "-c", code]
    done = subprocess.run(cmd, capture_output=True, text=True, env=oracles.child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("1 refused scenario "), done.stdout


def _boundary_points(p):
    # the witness, the closed piece's corners, and the midpoints of its edges
    kind, data = piece_geometry(p, 2)
    pts = [p.polyhedron.witness, *data]
    ring = list(data) + [data[0]] if kind == "polygon" else list(data)
    pts += [tuple((a + b) / 2 for a, b in zip(x, y)) for x, y in zip(ring, ring[1:])]
    return pts


def _check_query_against_constraints(preset):
    m = build_model(preset)
    closed = nondisplaceable_region(m)
    rng = random.Random(135)
    lo = [min(v[k] for v in m.vertices) for k in range(2)]
    hi = [max(v[k] for v in m.vertices) for k in range(2)]
    points = [p for piece in closed.pieces for p in _boundary_points(piece)]
    while len(points) < 400:
        u = tuple(lo[k] + (hi[k] - lo[k]) * Fraction(rng.randint(1, 199), 200) for k in range(2))
        if m.is_interior(u):
            points.append(u)
    cons = {p.scenario.serial: scenario_constraints(m, p.scenario) for p in closed.pieces}

    def want(u, closure):
        return [
            s for s, cs in cons.items() if all(oracles.condition_holds(c, u, closure) for c in cs)
        ]

    def check(r):
        for u in points:
            rep = query_point(r, u)
            serials = want(u, r.closure)
            assert [p.scenario.serial for p in rep.matches] == serials, (u, r.closure)
            assert rep.interior == m.is_interior(u)
            # holds and contains read Constraint.admits, the oracle its own rule
            held = [s for s, cs in cons.items() if all(c.holds(u, r.closure) for c in cs)]
            contained = [p.scenario.serial for p in r.pieces if p.polyhedron.contains(u, r.closure)]
            assert held == contained == serials, (u, r.closure)

    check(closed)  # builds the closed region's row index before replace
    opened = replace(closed, closure=False)
    check(opened)
    # a closed-boundary point: a stale index would answer as the closed region
    edge = next(u for u in points if want(u, True) != want(u, False))
    assert query_point(opened, edge).matches != query_point(closed, edge).matches
    return closed


def test_query_point_matches_brute_force_membership():
    _check_query_against_constraints("wp:1,3,5")
    r = _check_query_against_constraints("square:2,2,1,1")
    # segments and points: pieces with equality rows
    assert any(p.polyhedron.equalities for p in r.pieces)


def test_query_point_rejects_a_point_of_the_wrong_dimension():
    # zip would truncate (0, 0, 0) to a member of every piece, and (0,)
    # would pass the interior test with each facet form cut to its first
    # coordinate
    r = nondisplaceable_region(build_model("wp:1,3,5"))
    for u in [(0, 0, 0), (0,)]:
        with pytest.raises(InputError, match="dimension 2"):
            query_point(r, u)


def _facet_and_outside_points(m):
    # the vertices and the centre of each facet's vertices, on the boundary;
    # each vertex reflected in the centre of each of its facets, outside on
    # that facet's line in 2-d; and points past all of these, away from the
    # vertex centroid, outside
    centroid = [sum(v[k] for v in m.vertices) / len(m.vertices) for k in range(m.dim)]
    pts = list(m.vertices)
    for j in range(len(m.facets)):
        on = [v for v, cone in zip(m.vertices, m.cones) if j in cone.facet_indices]
        mid = tuple(sum(v[k] for v in on) / len(on) for k in range(m.dim))
        pts += [mid] + [tuple(2 * a - b for a, b in zip(mid, v)) for v in on]
    boundary = pts[:]
    for t in (Fraction(1, 7), 1):
        pts += [tuple(x + t * (x - c) for x, c in zip(u, centroid)) for u in boundary]
    return pts


def test_query_point_at_vertices_facets_and_outside_points():
    # the points the brute-force test above never asks about: the facet rows
    # of the row index decide them, and an empty region has no other rows
    for preset in ("wp:1,3,5", "square:2,2,1,1", "teardrop:3"):
        m = build_model(preset)
        closed = nondisplaceable_region(m)
        points = _facet_and_outside_points(m) + [p.polyhedron.witness for p in closed.pieces]
        assert any(not m.is_interior(u) for u in points) and any(map(m.is_interior, points))
        for r in (closed, replace(closed, closure=False), replace(closed, pieces=())):
            cons = [scenario_constraints(m, p.scenario) for p in r.pieces]
            for u in points:
                rep = query_point(r, u)
                want = [
                    p.scenario.serial
                    for p, cs in zip(r.pieces, cons)
                    if all(oracles.condition_holds(c, u, r.closure) for c in cs)
                ]
                assert rep.interior == m.is_interior(u), (preset, u)
                assert [p.scenario.serial for p in rep.matches] == want, (preset, r.closure, u)
                assert rep.member == bool(want)


def test_query_point_lists_dense_answers_in_piece_order():
    # the committed square_queries list the pieces a point lies in, in
    # r.pieces order; these points lie in 78 to all 984 closed pieces
    r = nondisplaceable_region(build_model("square:2,2,2,2"))
    half = Fraction(1, 2)
    points = [
        (Fraction(615, 997), Fraction(519, 997)),  # in 78 open pieces too
        (half, Fraction(5, 12)),  # on closed piece edges: 83 open pieces
        (half, half),
    ]
    assert [len(query_point(r, u).matches) for u in points] == [78, 233, 984]
    for reg in (r, replace(r, closure=False)):
        for u in points:
            want = [
                p for p in reg.pieces if oracles.polyhedron_contains(p.polyhedron, u, reg.closure)
            ]
            assert list(query_point(reg, u).matches) == want, (reg.closure, u)


def test_square_region_solves_once_per_signature(monkeypatch):
    # the adapted basis is the column Hermite form's, with positive pivots,
    # so the square's 984 pieces come down to 183 distinct systems
    calls = []
    real = region.solve

    def counted(lts, **kw):
        calls.append(lts)
        return real(lts, **kw)

    monkeypatch.setattr(region, "solve", counted)
    r = nondisplaceable_region(build_model("square:2,2,2,2"))
    assert (len(r.pieces), len(calls)) == (984, 183)


@pytest.mark.parametrize("preset", ["wp:1,3,7", "teardrop:3"])
def test_region_builds_no_laurent_polynomial(preset, monkeypatch):
    # signature and solve read each system's exponent rows; Laurent
    # polynomials are built only to print a system
    built = []
    real = series.LaurentPoly.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(series.LaurentPoly, "__init__", counted)
    r = nondisplaceable_region(build_model(preset))
    assert r.pieces and built == []


def test_shared_certificates_carry_own_symbols():
    # a signature-cache hit reuses another scenario's certificate; its
    # symbol values must come out under this scenario's own names
    m = build_model("square:2,2,1,1")
    r = nondisplaceable_region(m)
    assert len(r.pieces) == 36
    for p in r.pieces:
        lts = scenario_lts(m, p.scenario)
        cert = p.verdict.certificate
        env = dict(cert.symbol_values)
        assert tuple(env) == lts.symbols, p.scenario.serial
        residual = max(
            (
                abs(cert.y[i] * eq.eval_complex(cert.y, 1.0, env))
                for lv in lts.levels
                for i, eq in zip(lv.var_indices, lv.equations)
            ),
            default=0.0,
        )
        assert residual < 1e-10, p.scenario.serial


def test_scenario_region_teardrop():
    m = build_model("teardrop:3")
    feas = [s for s in enumerate_scenarios(m) if scenario_region(m, s) is not None]
    assert feas  # the single-facet scenarios are open intervals
    for s in feas:
        poly = scenario_region(m, s)
        assert oracles.polyhedron_contains(poly, poly.witness)


def test_region_equal_with_warm_and_cold_memos():
    m = build_model("wp:1,3,5")
    region._fourier_motzkin.cache_clear()
    region._polygon.cache_clear()
    cold = nondisplaceable_region(m)
    cold_geoms = [piece_geometry(p, 2) for p in cold.pieces]
    misses = region._fourier_motzkin.cache_info().misses, region._polygon.cache_info().misses
    warm = nondisplaceable_region(m)
    assert (region._fourier_motzkin.cache_info().misses, region._polygon.cache_info().misses) == misses
    assert warm.pieces == cold.pieces
    assert [p.polyhedron.witness for p in warm.pieces] == [p.polyhedron.witness for p in cold.pieces]
    assert [piece_geometry(p, 2) for p in warm.pieces] == cold_geoms
    assert region._polygon.cache_info().misses == misses[1]


@pytest.mark.parametrize("preset", ["square:2,2,1,1", "wp:1,3,5", "wp:1,3,7", "wp:1,2,2", "wp:1,1,3"])
def test_piece_geometry_matches_all_pairs_oracle(preset):
    # the certified pieces of wp:1,3,7, and every feasible scenario
    # polyhedron of the smaller models at one and two levels; the oracle
    # keeps its degenerate branches, so a degenerate piece would mismatch
    if preset == "wp:1,3,7":
        pieces = nondisplaceable_region(build_model(preset)).pieces
    else:
        pieces = [region.RegionPiece(s, poly, None) for s, poly in feasible_polyhedra([preset], (1, 2))]
    assert pieces
    for p in pieces:
        assert piece_geometry(p, 2) == oracles.piece_geometry_all_pairs(p)


def feasible_polyhedra(presets, max_levels):
    for preset, k in itertools.product(presets, max_levels):
        m = build_model(preset)
        for s in enumerate_scenarios(m, k):
            poly = scenario_region(m, s)
            if poly is not None:
                yield s, poly


@pytest.mark.parametrize("closure", [True, False])
@pytest.mark.parametrize("preset", ["square:2,2,2,2", "wp:1,3,7"])
def test_integer_polygon_and_clip_match_fraction_oracles(preset, closure):
    # every distinct binding set of the region's polygons, and every piece
    # clipped along four lines through its witness and, for a polygon,
    # through each vertex, where two rows tie
    r = nondisplaceable_region(build_model(preset), closure=closure)
    binding_sets = set()
    for p in r.pieces:
        bases = [p.polyhedron.witness]
        kind, data = piece_geometry(p, 2)
        if kind == "polygon":
            rows = region._binding(c.row for c in p.polyhedron.inequalities)
            if rows not in binding_sets:
                binding_sets.add(rows)
                assert region._polygon.__wrapped__(rows) == oracles.polygon_by_fractions(rows)
            bases += data
        for base, d in itertools.product(bases, ((1, 0), (0, 1), (1, -1), (2, 3))):
            assert region._clip(p, base, d, closure) == oracles.clip_by_fractions(p, base, d, closure)
    assert len(binding_sets) == {"square:2,2,2,2": 264, "wp:1,3,7": 31}[preset]


@st.composite
def polygon_rows(draw):
    # a box about the origin, rows through one point (three lines through a
    # vertex when it is one) and rows parallel to a drawn one, each strictly
    # positive at the origin
    b = draw(st.integers(1, 6))
    rows = [(-1, 0, b), (1, 0, b), (0, -1, b), (0, 1, b)]
    ints = st.integers(-5, 5)
    vx, vy = draw(ints), draw(ints)
    for a1, a2 in draw(st.lists(st.tuples(ints, ints), min_size=3, max_size=5)):
        rows.append((a1, a2, -(a1 * vx + a2 * vy)))
    for k, c in draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 30)), max_size=3)):
        a1, a2, _ = draw(st.sampled_from(rows))
        rows.append((k * a1, k * a2, c))
    rows += draw(st.lists(st.tuples(ints, ints, st.integers(1, 30)), max_size=4))
    return frozenset(row for row in rows if row[2] > 0 and (row[0] or row[1]))


@given(polygon_rows())
@settings(max_examples=200, deadline=None)
def test_integer_polygon_matches_fraction_oracle_on_random_rows(rows):
    assert region._polygon.__wrapped__(rows) == oracles.polygon_by_fractions(rows)


@st.composite
def clip_cases(draw):
    # a line base + t*d, one condition bounding t from each side, one
    # parallel to the line, and more of both kinds and relations, some
    # meeting the line at one common t
    ints = st.integers(-4, 4)
    d = draw(st.tuples(ints, ints).filter(any))
    base = draw(st.tuples(*[st.fractions(-3, 3, max_denominator=6)] * 2))
    t0 = draw(st.fractions(-3, 3, max_denominator=6))
    tie = [x + t0 * y for x, y in zip(base, d)]
    rows = [(*d, draw(ints)), (-d[0], -d[1], draw(ints)), (-d[1], d[0], draw(ints))]
    for a1, a2, through in draw(st.lists(st.tuples(ints, ints, st.booleans()), max_size=6)):
        rows.append(cleared((a1, a2, -(a1 * tie[0] + a2 * tie[1]))) if through else (a1, a2, draw(ints)))
    cons = [
        Constraint(
            tuple(row),
            ">" if k < 2 else draw(st.sampled_from([">", "=="])),
            draw(st.sampled_from(["interior", "sector"])),
            "t",
        )
        for k, row in enumerate(rows)
    ]
    eqs = tuple(c for c in cons if c.rel == "==")
    ineqs = tuple(c for c in cons if c.rel == ">")
    return region.RegionPiece(None, region.ScenarioPolyhedron(eqs, ineqs, ()), None), base, d


@given(clip_cases(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_integer_clip_matches_fraction_oracle_on_random_lines(case, closed):
    piece, base, d = case
    assert region._clip(piece, base, d, closed) == oracles.clip_by_fractions(piece, base, d, closed)


def test_piece_interval_endpoints_are_tight():
    # every feasible scenario polyhedron of five 1-d models, in both closure
    # modes: lo and hi are the piece's own endpoints, and each is closed
    # exactly when the piece holds it
    presets = ["teardrop:2", "teardrop:3", "teardrop:7", "interval:1,1", "interval:2,3"]
    cases = 0
    for (s, poly), closed in itertools.product(feasible_polyhedra(presets, (1, 2)), (True, False)):
        piece = region.RegionPiece(s, poly, None)
        lo, lo_closed, hi, hi_closed = region._piece_interval(piece, closed)
        # half the least gap between the conditions' boundaries and the
        # endpoints: no other boundary lies within delta of lo or of hi
        conditions = poly.equalities + poly.inequalities
        ends = {Fraction(-c.row[1], c.row[0]) for c in conditions if c.row[0]}
        ends = sorted(ends | {lo, hi})
        delta = min((b - a for a, b in zip(ends, ends[1:])), default=2) / 2

        def contains(u, closed=False):
            return oracles.polyhedron_contains(poly, (u,), closed)

        assert not contains(lo - delta, True)
        assert not contains(hi + delta, True)
        if lo < hi:
            assert contains(lo + delta) and contains(hi - delta)
            assert lo_closed == contains(lo, closed)
            assert hi_closed == contains(hi, closed)
        else:
            assert lo == hi
            assert (lo_closed and hi_closed) == contains(lo, closed)
        cases += 1
    assert cases == 948


def test_region_teardrop_interval():
    m = build_model("teardrop:3")
    r = nondisplaceable_region(m)
    assert interval_union(r) == [(Fraction(-1, 3), False, Fraction(1, 3), True)]
    ro = nondisplaceable_region(m, closure=False)
    assert interval_union(ro) == [(Fraction(-1, 3), False, Fraction(1, 3), False)]


def test_region_closure_flag_at_query():
    m = build_model("teardrop:3")
    u = (Fraction(1, 3),)
    assert query_point(nondisplaceable_region(m), u).member
    assert not query_point(nondisplaceable_region(m, closure=False), u).member


def test_region_square_center():
    m = build_model("square:1,1,1,1")
    r = nondisplaceable_region(m)
    assert len(r.pieces) == 1
    assert piece_geometry(r.pieces[0], 2) == (
        "point",
        ((Fraction(1, 2), Fraction(1, 2)),),
    )
    assert query_point(r, (Fraction(1, 2), Fraction(1, 2))).member
    assert not query_point(r, (Fraction(1, 4), Fraction(1, 2))).member


def test_region_p122_segment_and_center():
    m = build_model("wp:1,2,2")
    r = nondisplaceable_region(m)
    geoms = {piece_geometry(p, 2) for p in r.pieces}
    assert (
        "segment",
        ((Fraction(-1, 6), Fraction(-1, 6)), (Fraction(0), Fraction(0))),
    ) in geoms
    assert ("point", ((Fraction(0), Fraction(0)),)) in geoms
    assert query_point(r, (Fraction(-1, 12), Fraction(-1, 12))).member
    assert not query_point(r, (Fraction(-1, 4), Fraction(-1, 4))).member


def test_region_p113_segment():
    m = build_model("wp:1,1,3")
    r = nondisplaceable_region(m)
    geoms = {piece_geometry(p, 2) for p in r.pieces}
    assert (
        "segment",
        ((Fraction(-1), Fraction(2, 3)), (Fraction(0), Fraction(0))),
    ) in geoms
    assert query_point(r, (Fraction(-1, 2), Fraction(1, 3))).member


def test_region_all_labels_two_covers_interior():
    m = build_model("interval:2,2")
    r = nondisplaceable_region(m)
    assert interval_union(r) == [(Fraction(0), False, Fraction(1), False)]
    rep = query_point(r, (Fraction(137, 1000),))
    assert rep.member
    assert all(
        p.verdict.status is Solvability.SolvableCertified for p in rep.matches
    )


def test_query_exterior_point():
    m = build_model("teardrop:3")
    r = nondisplaceable_region(m)
    rep = query_point(r, (Fraction(2),))
    assert not rep.interior and not rep.member and rep.matches == ()


def test_region_deterministic():
    m = build_model("wp:1,2,2")
    a = nondisplaceable_region(m, seed=3)
    b = nondisplaceable_region(m, seed=3)
    assert [p.scenario.serial for p in a.pieces] == [p.scenario.serial for p in b.pieces]
    assert [p.verdict for p in a.pieces] == [p.verdict for p in b.pieces]
