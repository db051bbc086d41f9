"""Leading-order potentials: term formulas, residuals, critical points."""

import doctest
from fractions import Fraction

import pytest
import sympy

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
    critical_residual_sq_exact,
    shared_t_exponent,
    smooth_leading_potential,
    wp_central_critical,
)
from orbifloer.series import QC, LaurentPoly, NovikovScalar, SymLin
from orbifloer.stacky import build_model


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


def test_exact_residual_cube_root_case():
    # 1/(y1 y2) + y1 + y2 is critical at y1 = y2 = 1
    poly = (
        LaurentPoly.monomial((-1, -1), NovikovScalar.one())
        + LaurentPoly.monomial((1, 0), NovikovScalar.one())
        + LaurentPoly.monomial((0, 1), NovikovScalar.one())
    )
    assert critical_residual_sq_exact(poly, (QC.of(1), QC.of(1))) == 0
    assert critical_residual_sq_exact(poly, (QC.of(1), QC.of(-1))) != 0


def test_shared_t_exponent():
    m = build_model("teardrop:3")
    assert shared_t_exponent(smooth_leading_potential(m, (Fraction(0),))) == 1
    assert shared_t_exponent(smooth_leading_potential(m, (Fraction(1, 10),))) is None
    with pytest.raises(InputError):
        critical_residual_sq_exact(
            smooth_leading_potential(m, (Fraction(1, 10),)), (QC.of(1),)
        )


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


def test_doctests():
    failures, _ = doctest.testmod(potential_mod)
    assert failures == 0
