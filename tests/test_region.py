"""Scenario enumeration, exact feasibility, and region assembly."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbifloer import ltsolver, region
from orbifloer.errors import TooManyScenarios
from orbifloer.ltsolver import Solvability, lts_signature, row_signature, signature_symbols, solve
from orbifloer.region import (
    Constraint,
    enumerate_scenarios,
    feasible_witness,
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
    return Constraint(tuple(map(Fraction, coeffs)), Fraction(const), ">", "level", "t")


def eq(coeffs, const):
    return Constraint(tuple(map(Fraction, coeffs)), Fraction(const), "==", "level", "t")


def test_enumerate_teardrop():
    m = build_model("teardrop:3")
    ss = enumerate_scenarios(m)
    # 1 level: facets {0},{1},{0,1} x sector subsets {},{0},{1},{0,1} = 12;
    # 2 levels need a second independent direction, impossible in dim 1
    assert len(ss) == 12
    assert [s.serial for s in ss] == list(range(12))
    assert all(s.span_dims[-1] == 1 for s in ss)


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
    return [(s.serial, s.levels, s.excluded, s.span_dims) for s in scenarios]


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
        sig = lts_signature(lts)
        if sig not in cache:
            cache[sig] = (solve(lts), signature_symbols(lts))
        verdict = region._renamed(*cache[sig], signature_symbols(lts))
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

    def counted(m, s):
        examined.append(s.serial)
        return real(m, s)

    monkeypatch.setattr(region, "scenario_region", counted)
    r = nondisplaceable_region(m)
    assert [(p.scenario.serial, p.polyhedron.witness, p.verdict) for p in r.pieces] == want
    # only feasible candidates the oracle does not refute reach scenario_region
    feasible = {s.serial for s in enumerate_scenarios(m) if real(m, s) is not None}
    assert examined == sorted(feasible - {s.serial for s in refuted})


def test_coloop_groups_equal_residues():
    # members with one residue share a weight and may cancel (y + c*y
    # vanishes at c = -1), so only a lone member can be a coloop
    assert not region._has_coloop([(1, 0), (1, 0)])
    assert not region._has_coloop([(1, 0), (1, 0), (0, 1), (0, 2)])
    assert region._has_coloop([(1, 0), (0, 1), (0, 2)])
    assert region._has_coloop([(1, 0)])
    # a circuit has no coloop, and the zero residue joins no relation
    assert not region._has_coloop([(1, 0), (0, 1), (1, 1)])
    assert not region._has_coloop([(0, 0), (1, 0), (2, 0)])
    # residues modulo the span of (1, 0): (1, 3) and (5, 3) are one group
    basis = ((1, 0),)
    assert region._residue((1, 3), basis) == region._residue((5, 3), basis) == (0, 3)
    assert not region._has_coloop([region._residue(v, basis) for v in [(1, 3), (5, 3), (2, 0)]])


def _walk_refuted(m, max_levels=2):
    """The region of m and the leaves its walk refutes by a coloop level.

    The leaves come back as Scenarios with serial -1, in walk order.
    """
    refuted = []
    real = region._SpanTree.coloop_leaf

    def recording(tree, digits, state):
        hit = real(tree, digits, state)
        if hit:
            ranks = [tree.rank(span) for span in state[0]]
            refuted.append(region._scenario(-1, digits, len(m.facets), ranks))
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
        leaves = region._scenario_walk(m, max_levels, region._piece_candidates(m))
    else:
        leaves = enumerate_scenarios(m, max_levels)
    pairs, seen = [], set()
    for s in leaves:
        if scenario_region(m, s) is None:
            continue
        strat, rows = region.scenario_rows(m, s)
        key, symbols = row_signature(rows)
        lts = scenario_lts(m, s, (strat, rows))
        want = oracles.scenario_lts_by_rewrite(m, s)
        assert lts == want and oracles.lts_terms(lts) == oracles.lts_terms(want), s.serial
        if key not in seen:
            # without the walk's span_dims, as a region document is re-read
            bare = scenario_lts(m, replace(s, span_dims=()))
            assert oracles.lts_terms(bare) == oracles.lts_terms(want)
            seen.add(key)
        sig, want_symbols = oracles.signature_by_terms(want)
        assert symbols == want_symbols == signature_symbols(lts)
        assert lts_signature(lts) == key
        pairs.append((key, sig))
    assert len(pairs) > 10
    assert oracles.one_to_one(pairs)


def test_scenario_rows_take_ranks_from_the_walk(monkeypatch):
    m = build_model("wp:1,3,5")
    s = next(s for s in enumerate_scenarios(m) if s.K == 2 and scenario_region(m, s))
    want = oracles.lts_terms(scenario_lts(m, s))

    def refuse(rows):
        raise AssertionError("a level rank was recomputed")

    monkeypatch.setattr(ltsolver, "rank_rational", refuse)
    assert oracles.lts_terms(scenario_lts(m, s)) == want


def test_coloop_prunes_a_root_at_infinity():
    # y2 * df/dy2 = -c5/y2 never vanishes, yet a float search finds a
    # "root" drifting to |y2| ~ 5e7 inside the certificate's window
    m = build_model("square:2,2,2,2")
    s = enumerate_scenarios(m, 1)[18]
    assert s.levels == ((("facet", 3), ("sector", 3), ("sector", 5)),)
    lts = scenario_lts(m, s)
    assert render_poly(lts.levels[0].poly) == "1*y1^-2 + c3*y1^-1 + c5*y2^-1"
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
    assert render_poly(lts.levels[0].poly) == "1*y1^-1 + c0*y2^-1 + 1*y2"
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
        systems.setdefault(lts_signature(lts), lts)
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
    assert level.value((Fraction(0),)) == 0
    assert level.value((Fraction(1, 10),)) != 0


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
    assert w is not None and all(c.holds(w) for c in cons)


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
                all(c.holds((x, y)) for c in cons) for x in grid for y in grid
            )
        else:
            assert all(c.holds(w) for c in cons)


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
@given(rows=_rows, scales=_scales)
def test_feasible_witness_invariant_under_positive_row_scaling(rows, scales):
    cons = [Constraint(tuple(map(Fraction, g)), c, rel, "level", "t") for g, c, rel in rows]
    w = feasible_witness(cons, 3)
    if w is not None:
        assert all(c.holds(w) for c in cons)
    # Fraction rows with denominators of their own, cleared row by row
    scaled = [
        Constraint(tuple(q * x for x in c.coeffs), q * c.const, c.rel, c.kind, c.label)
        for c, q in zip(cons, scales)
    ]
    assert feasible_witness(scaled, 3) == w


def _boundary_points(p):
    # the witness, the closed piece's corners, and the midpoints of its edges
    kind, data = piece_geometry(p, 2)
    pts = [p.polyhedron.witness, *data]
    ring = list(data) + [data[0]] if kind == "polygon" else list(data)
    pts += [tuple((a + b) / 2 for a, b in zip(x, y)) for x, y in zip(ring, ring[1:])]
    return pts


def test_query_point_matches_brute_force_membership():
    m = build_model("wp:1,3,5")
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
    for r in (closed, replace(closed, closure=False)):
        for u in points:
            want = [
                s for s, cs in cons.items() if all(c.holds(u, r.closure) for c in cs)
            ]
            rep = query_point(r, u)
            assert [p.scenario.serial for p in rep.matches] == want, (u, r.closure)
            assert rep.interior == m.is_interior(u)


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
        assert poly.contains(poly.witness)


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
