"""Leading-order potentials: term formulas, residuals, critical points."""

import doctest
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import orbifloer.potential as potential_mod
from orbifloer.errors import (
    InputError,
    NonPositiveBulkExponent,
    PointNotInterior,
    ZeroCoordinate,
)
from orbifloer.potential import (
    BulkParam,
    CentralFiberCritical,
    bulk_leading_potential,
    critical_points,
    critical_residual,
    smooth_leading_potential,
    wp_central_critical,
)
from orbifloer.series import QC, LaurentPoly, NovikovScalar, SymLin
from orbifloer.stacky import build_model, enumerate_box, sector_ell


def term_set(p):
    return {(t.kind, t.exponent, t.t_exponent) for t in p.terms}


def test_teardrop_terms():
    m = build_model("teardrop:3")
    p = smooth_leading_potential(m, (Fraction(1, 10),))
    assert term_set(p) == {
        ("facet", (3,), Fraction(13, 10)),
        ("facet", (-1,), Fraction(9, 10)),
    }
    assert str(p) == "T^{13/10}*y1^3 + T^{9/10}*y1^-1"


def test_wp_terms():
    m = build_model("wp:1,3,5")
    u = (Fraction(1, 20), Fraction(0))
    p = smooth_leading_potential(m, u)
    # T^(1 - <a,u>) y1^-3 y2^-5 + T^(1+u1) y1 + T^(1+u2) y2
    assert term_set(p) == {
        ("facet", (-3, -5), Fraction(17, 20)),
        ("facet", (1, 0), Fraction(21, 20)),
        ("facet", (0, 1), Fraction(1)),
    }


def test_square_terms():
    m = build_model("square:1,1,1,1")
    u = (Fraction(1, 3), Fraction(1, 4))
    p = smooth_leading_potential(m, u)
    assert {t.t_exponent for t in p.terms} == {
        Fraction(1, 3),
        Fraction(1, 4),
        Fraction(2, 3),
        Fraction(3, 4),
    }
    assert len(p.terms) == 4


def test_boundary_point_rejected():
    m = build_model("teardrop:3")
    with pytest.raises(PointNotInterior):
        smooth_leading_potential(m, (Fraction(1),))


def test_bulk_teardrop():
    m = build_model("teardrop:3")
    alpha = Fraction(1, 7)
    bp = BulkParam.of([((1,), QC.of(1), alpha)])
    p = bulk_leading_potential(m, (Fraction(1, 10),), bp)
    assert len(p.terms) == 3
    sector = [t for t in p.terms if t.kind == "sector"]
    assert len(sector) == 1
    # alpha + ell_{nu_1}(u) with ell_{nu_1} = u + 1/3
    assert sector[0].t_exponent == alpha + Fraction(1, 10) + Fraction(1, 3)
    assert sector[0].exponent == (1,)


def test_bulk_p11a():
    m = build_model("wp:1,1,3")
    alpha = Fraction(1, 5)
    bp = BulkParam.of([((0, -1), QC.of(1), alpha)])
    u = (Fraction(-1, 10), Fraction(1, 10))
    p = bulk_leading_potential(m, u, bp)
    sector = [t for t in p.terms if t.kind == "sector"][0]
    # adds T^(alpha + 2/a - u2) / y2
    assert sector.t_exponent == alpha + Fraction(2, 3) - Fraction(1, 10)
    assert sector.exponent == (0, -1)


def test_bulk_zero_is_smooth():
    m = build_model("wp:1,3,5")
    u = (Fraction(1, 20), Fraction(0))
    assert bulk_leading_potential(m, u, BulkParam.zero()).poly == smooth_leading_potential(m, u).poly
    dropped = BulkParam.of([((0, -1), QC.of(0), Fraction(1, 2))])
    assert bulk_leading_potential(m, u, dropped).poly == smooth_leading_potential(m, u).poly


def test_bulk_validation():
    m = build_model("teardrop:3")
    with pytest.raises(NonPositiveBulkExponent):
        BulkParam.of([((1,), QC.of(1), 0)])
    with pytest.raises(NonPositiveBulkExponent):
        BulkParam.of([((1,), QC.of(1), Fraction(-1, 2))])
    bad = BulkParam.of([((7,), QC.of(1), Fraction(1, 2))])
    with pytest.raises(InputError):
        bulk_leading_potential(m, (Fraction(0),), bad)


def test_bulk_exponents_positive_interior():
    m = build_model("wp:1,3,5")
    bp = BulkParam.of(
        [((0, -1), QC.of(1), Fraction(1, 9)), ((-1, -2), SymLin.symbol("c"), Fraction(1, 3))]
    )
    for u in [(Fraction(1, 20), Fraction(0)), (Fraction(-1, 10), Fraction(1, 100))]:
        p = bulk_leading_potential(m, u, bp)
        assert all(t.t_exponent > 0 for t in p.terms)
        assert len(p.terms) == 3 + 2


def test_exponent_shift_affine_in_u():
    m = build_model("wp:1,3,5")
    u1 = (Fraction(1, 20), Fraction(0))
    u2 = (Fraction(-1, 10), Fraction(1, 100))
    p1 = smooth_leading_potential(m, u1)
    p2 = smooth_leading_potential(m, u2)
    d = [b - a for a, b in zip(u1, u2)]
    for t1, t2 in zip(p1.terms, p2.terms):
        pairing = sum(x * e for x, e in zip(d, t1.exponent))
        assert t2.t_exponent - t1.t_exponent == pairing


def sympy_residual(p, y, t_value):
    """Independent expand-then-differentiate residual."""
    n = len(y)
    ys = sympy.symbols(f"w1:{n + 1}")
    T = sympy.Symbol("T", positive=True)
    expr = 0
    for trm in p.terms:
        mono = T ** sympy.Rational(trm.t_exponent.numerator, trm.t_exponent.denominator)
        for i, e in enumerate(trm.exponent):
            mono *= ys[i] ** e
        expr += mono
    subs = {T: sympy.Float(t_value, 30)}
    for i, c in enumerate(y):
        subs[ys[i]] = sympy.Float(c.real, 30) + sympy.I * sympy.Float(c.imag, 30)
    worst = 0.0
    for i in range(n):
        g = ys[i] * sympy.diff(expr, ys[i])
        worst = max(worst, abs(complex(g.subs(subs))))
    return worst


def test_residual_against_sympy():
    cases = [
        (build_model("teardrop:3"), (Fraction(1, 10),), [(0.7 + 0.2j,), (1.3 - 0.4j,)]),
        (
            build_model("wp:1,3,5"),
            (Fraction(1, 20), Fraction(0)),
            [(0.9 + 0.1j, 1.1 - 0.3j), (0.5, 2.0 + 1.0j)],
        ),
    ]
    for m, u, points in cases:
        p = smooth_leading_potential(m, u)
        for y in points:
            mine = critical_residual(p, y, 0.5)
            ref = sympy_residual(p, y, 0.5)
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_residual_examples():
    m = build_model("teardrop:3")
    p = smooth_leading_potential(m, (Fraction(0),))
    root = (1 / 3) ** 0.25
    assert critical_residual(p, (root,), 0.5) < 1e-12
    assert critical_residual(p, (1j * root,), 0.5) < 1e-12
    assert critical_residual(p, (root + 0.1,), 0.5) > 1e-3
    constant = LaurentPoly.monomial((0,), NovikovScalar.of(QC.of(5)))
    assert critical_residual(constant, (2.3 + 1j,), 0.5) == 0.0
    with pytest.raises(ZeroCoordinate):
        critical_residual(p, (0.0,), 0.5)


def test_residual_rejects_non_finite_input():
    # max(0.0, nan) is 0.0, so a NaN must not get as far as the maximum
    nan, inf = float("nan"), float("inf")
    p = smooth_leading_potential(build_model("teardrop:3"), (Fraction(0),))
    for y in [(nan,), (complex(1, nan),), (inf,), (complex(nan, nan),)]:
        with pytest.raises(InputError):
            critical_residual(p, y, 0.5)
    q = smooth_leading_potential(build_model("wp:1,3,5"), (Fraction(1, 20), Fraction(0)))
    with pytest.raises(InputError):
        critical_residual(q, (nan, 1), 0.5)
    for t in (nan, inf, 0, -0.5):
        with pytest.raises(InputError):
            critical_residual(p, (0.7,), t)


def test_teardrop_critical_points():
    for a in (2, 3, 5):
        m = build_model(f"teardrop:{a}")
        p = smooth_leading_potential(m, (Fraction(0),))
        pts = critical_points(p, t_value=0.5)
        assert len(pts) == a + 1
        for c in pts:
            assert c.residual < 1e-12
            assert abs(c.y[0] ** (a + 1) - 1 / a) < 1e-10


def test_critical_points_off_center():
    m = build_model("teardrop:3")
    p = smooth_leading_potential(m, (Fraction(1, 10),))
    pts = critical_points(p, t_value=0.5)
    assert len(pts) == 4
    assert all(c.residual < 1e-12 for c in pts)


def test_critical_points_need_positive_finite_t():
    m = build_model("teardrop:3")
    p = smooth_leading_potential(m, (Fraction(0),))
    for t in (0, -1, float("nan"), float("inf")):
        with pytest.raises(InputError):
            critical_points(p, t_value=t)


def test_multivariate_critical_points():
    m = build_model("wp:1,1,1")
    p = smooth_leading_potential(m, (Fraction(0), Fraction(0)))
    pts = critical_points(p, t_value=0.5, seed=11)
    assert len(pts) == 3
    for c in pts:
        assert abs(c.y[0] - c.y[1]) < 1e-8
        assert abs(c.y[0] ** 3 - 1) < 1e-8
    again = critical_points(p, t_value=0.5, seed=11)
    assert [c.y for c in again] == [c.y for c in pts]


def seeded_fiber(m, rng, tie):
    """A seeded interior point; with tie, moved until the lowest facet ties another."""
    w = [rng.randint(1, 9) for _ in m.vertices]
    u = tuple(sum(a * Fraction(v[k]) for a, v in zip(w, m.vertices)) / sum(w) for k in range(m.dim))
    if not tie:
        return u
    energies = [m.ell(j, u) for j in range(len(m.facets))]
    low = min(range(len(energies)), key=energies.__getitem__)
    other = rng.choice([j for j in range(len(energies)) if j != low])
    d = [a - b for a, b in zip(m.ell_form(low)[0], m.ell_form(other)[0])]
    step = (energies[other] - energies[low]) / sum(x * x for x in d)
    moved = tuple(x + step * dx for x, dx in zip(u, d))
    return moved if m.is_interior(moved) else u


def seeded_bulk(m, u, rng):
    """Half the sectors on, mostly tied to the lowest facet energy at u."""
    low = min(m.ell(j, u) for j in range(len(m.facets)))
    box = enumerate_box(m)
    out = []
    for i in sorted(rng.sample(range(len(box)), (len(box) + 1) // 2)):
        lam = low - sector_ell(m, box[i], u)
        if lam <= 0 or rng.random() < 0.2:
            lam = Fraction(rng.randint(1, 12), 12)
        out.append((box[i].nu, QC.of(rng.choice([1, -1, 2, Fraction(1, 2)])), lam))
    return BulkParam.of(out)


@pytest.mark.parametrize("preset", ["teardrop:3", "wp:1,3,5", "square:3,2,3,2", "wp:1,2,3,5"])
def test_critical_points_match_eval_complex_oracle(preset):
    m = build_model(preset)
    rng = random.Random(f"critical/{preset}")
    found = 0
    for tie in (False, True):
        u = seeded_fiber(m, rng, tie)
        for pot in (smooth_leading_potential(m, u), bulk_leading_potential(m, u, seeded_bulk(m, u, rng))):
            for t in (0.5, 2.0):
                got = critical_points(pot, t_value=t)
                want = oracles.critical_points_by_eval(pot, t_value=t)
                assert len(got) == len(want)
                for c, w in zip(got, want):
                    assert all(abs(a - b) <= 1e-12 * max(1, abs(b)) for a, b in zip(c.y, w.y))
                    assert critical_residual(pot, c.y, t) < 1e-10
                found += len(got)
    assert found > 0


def _newton_recorded(monkeypatch, outputs=None):
    """Record each Newton result of critical_points; with outputs, return those instead."""
    seen = []
    newton = potential_mod._newton

    def run(data, z0, iters=60):
        out = newton(data, z0, iters) if outputs is None else outputs
        seen.append(out)
        return out

    monkeypatch.setattr(potential_mod, "_newton", run)
    return seen


@pytest.mark.parametrize("preset", ["teardrop:5", "wp:1,3,5", "square:2,2,2,2", "wp:1,2,3,5"])
def test_critical_keep_matches_the_loop_on_seeded_runs(monkeypatch, preset):
    m = build_model(preset)
    rng = random.Random(f"keep/{preset}")
    seen = _newton_recorded(monkeypatch)
    found = 0
    for tie in (False, True, True):
        u = seeded_fiber(m, rng, tie)
        for pot in (smooth_leading_potential(m, u), bulk_leading_potential(m, u, seeded_bulk(m, u, rng))):
            for seed in (0, 1):
                got = critical_points(pot, seed=seed)
                assert got == oracles.critical_keep_by_loop(*seen[-1], m.dim)
                found += len(got)
    assert found > 0


# (x, y) rounds to one 9-digit key under np.round but to two under Python's
# round, and (y, z) the other way about
TIE_X, TIE_Y, TIE_Z = 0.14427251049999998, 0.1442725105, 0.14427251050000003
# |RIM - (1e-3 + 1e-3j)| is exactly 1e-6 as Python's abs (libm hypot) takes
# it, while np.abs of the difference exceeds 1e-6 by one bit
RIM = 0.001000887152822908 + 0.0010004614757510492j
# hand-made Newton outputs, with the residuals as both the scaled and the
# absolute one; test_ltsolver.py runs the multistart filter on the same kind
KEEP_EDGES = {
    "nan-residual": (
        [(1.0, 2.0), (0.5, 0.5), (1.0 + 1e-9, 2.0), (np.nan, 1.0), (3.0, 7.0), (3.0, 7.0 + 1e-5)],
        [1e-14, np.nan, 1e-13, 1e-15, np.nan, 1e-14],
    ),
    "at-the-radius": ([(1e-3 + 1e-3j, 1.0), (RIM, 1.0), (1e-3 + 1e-6 + 1e-3j, 1.0)], [0.0, 0.0, 0.0]),
    "rounding-ties": ([(TIE_Y, 0.1), (TIE_X, 0.9), (TIE_Z, 0.5), (TIE_Y, 0.3)], [0.0, 0.0, 0.0, 0.0]),
    "none-kept": ([(1.0, 1.0), (2.0, 2.0), (1e-9, 1.0)], [1e-3, np.inf, 0.0]),
}


@pytest.mark.parametrize("edge", KEEP_EDGES)
def test_critical_keep_matches_the_loop_on_edge_cases(monkeypatch, edge):
    points, residuals = KEEP_EDGES[edge]
    ys = np.array(points, dtype=complex)
    res = np.array(residuals)
    fv = np.stack([res, res / 2], axis=1).astype(complex)
    _newton_recorded(monkeypatch, (ys, res, fv))
    pot = smooth_leading_potential(build_model("wp:1,3,5"), (Fraction(0), Fraction(0)))
    got = critical_points(pot)
    assert got == oracles.critical_keep_by_loop(ys, res, fv, 2)
    if edge == "none-kept":
        assert got == []


def test_critical_point_count_holds_as_t_goes_to_zero():
    # every log-gradient entry scales with a power of T, so tolerances taken
    # relative to the entry's coefficients find the same points at every T;
    # absolute ones once took unconverged starts for points (13 at T = 1e-9,
    # 64 at T = 1e-12)
    m = build_model("wp:1,3,5")
    pot = smooth_leading_potential(m, (Fraction(-1, 10), Fraction(1, 100)))
    for t in (0.5, 1e-9, 1e-12):
        assert len(critical_points(pot, t_value=t)) == 9


def test_wp_central_critical():
    out = wp_central_critical((1, 2))
    assert isinstance(out, CentralFiberCritical)
    assert out.residual < 1e-12
    assert abs(out.lam - 2 ** -0.5) < 1e-12
    assert abs(out.y[0] - out.lam) < 1e-10
    assert abs(out.y[1] - 2 * out.lam) < 1e-10

    ones = wp_central_critical((1, 1))
    assert abs(ones.lam - 1) < 1e-10

    for tail in ((2, 3), (1, 1, 2)):
        r = wp_central_critical(tail)
        assert r.residual < 1e-10
        # y_i = a_i * lam on the positive branch
        assert all(abs(y - a * r.lam) < 1e-9 for y, a in zip(r.y, tail))

    with pytest.raises(InputError):
        wp_central_critical(())


@pytest.mark.parametrize("weights", [(1.5, 2), (2.9,), (0, 1), (-2,), (2, "3"), (float("nan"),)])
def test_wp_central_critical_rejects_weights_that_are_not_positive_integers(weights):
    with pytest.raises(InputError):
        wp_central_critical(weights)


@given(st.lists(st.integers(1, 12), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_wp_central_critical_closed_form(tail):
    r = wp_central_critical(tail)
    assert r.residual < 1e-10
    assert all(abs(y - a * r.lam) <= 1e-12 * a * r.lam for y, a in zip(r.y, tail))
    assert abs(r.lam ** (1 + sum(tail)) * math.prod(a**a for a in tail) - 1) < 1e-12


def test_doctests():
    failures, _ = doctest.testmod(potential_mod)
    assert failures == 0
