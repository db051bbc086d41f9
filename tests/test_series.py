"""Coefficients, T-free Laurent polynomials, rendering round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbifloer import series
from orbifloer.errors import ZeroCoordinate
from orbifloer.series import QC, LaurentPoly

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
coefficients = st.builds(QC, rationals).filter(lambda c: not c.is_zero())


def test_qc_merges_repeated_names():
    c0 = QC.symbol("c0")
    assert c0 + QC(0, (("c0", 2),)) == QC(0, (("c0", 3),))
    cancel = c0 + QC(1, (("c0", -1),))
    assert not cancel.lin and cancel == QC(1)
    assert QC(0, (("b", 1), ("a", 2), ("b", 3))).lin == (("a", 2), ("b", 4))


def test_qc_arithmetic():
    half = QC(Fraction(1, 2))
    assert half * 3 == QC(Fraction(3, 2)) and half * -4 == QC(-2)
    assert half + QC(1) == QC(Fraction(3, 2)) and (half + QC(Fraction(-1, 2))).is_zero()
    assert QC.of(Fraction(1, 2)) == half and hash(QC.of(Fraction(1, 2))) == hash(half)
    assert half.to_complex() == 0.5 + 0j


def test_qc_refuses_a_second_part():
    # a coefficient is rational: no imaginary part enters, as the constant
    # or through QC.of, and its symbol part is (name, rational) pairs
    with pytest.raises(TypeError):
        QC(1j)
    with pytest.raises(TypeError):
        QC(1, 2)
    with pytest.raises(TypeError):
        QC.of(1j)


def exponent_vectors(n):
    return st.tuples(*([st.integers(-3, 3)] * n))


def polys(n, coeffs=coefficients):
    """Polynomials as the package builds them: distinct exponents, nonzero coefficients."""
    return st.lists(st.tuples(exponent_vectors(n), coeffs), max_size=4, unique_by=lambda t: t[0]).map(
        lambda ts: LaurentPoly(n, ts)
    )


def test_eval_paths_agree():
    p = LaurentPoly(2, [((1, 0), QC(1)), ((0, -2), QC(3))])
    # a level is T-free: t does not enter the value
    for t in (0.5, 1.0):
        got = p.eval_complex((2 + 0j, 1j), t)
        assert abs(got - (2 + 3 * (1j) ** -2)) < 1e-12
    assert oracles.eval_exact(p, (QC(2), QC(Fraction(1, 2)))) == 14
    with pytest.raises(ZeroCoordinate):
        p.eval_complex((0j, 1j), 0.5)


def test_monomial_rewrite_unimodular_only():
    # y1*y2 under M = [[1,0],[1,1]] becomes y1'^2 * y2'
    p = LaurentPoly(2, [((1, 1), QC(1))])
    q = oracles.monomial_rewrite(p, ((1, 0), (1, 1)))
    assert (q.n, q.terms()) == (2, (((2, 1), QC(1)),))
    with pytest.raises(ValueError):
        oracles.monomial_rewrite(p, ((2, 0), (0, 1)))


def test_monomial_rewrite_identity_and_inverse():
    p = LaurentPoly(2, [((1, 0), QC(1)), ((0, 1), QC(2))])
    same = oracles.monomial_rewrite(p, ((1, 0), (0, 1)))
    assert (same.n, same.terms()) == (p.n, p.terms())
    m = ((1, 1), (0, 1))
    minv = ((1, -1), (0, 1))
    back = oracles.monomial_rewrite(oracles.monomial_rewrite(p, m), minv)
    assert (back.n, back.terms()) == (p.n, p.terms())


@given(polys(2))
@settings(max_examples=60, deadline=None)
def test_monomial_rewrite_preserves_evaluation(p):
    m = ((1, 1), (0, 1))
    q = oracles.monomial_rewrite(p, m)
    # q(z) = p(w) with w_i = prod_j z_j^(M_ij), reading row i of M
    z = (1.5 + 0.25j, -0.75 + 1j)
    w = (z[0] * z[1], z[1])
    got = q.eval_complex(z, 0.5)
    expect = p.eval_complex(w, 0.5)
    assert abs(got - expect) < 1e-9


def simple_polys(n):
    simple_coeffs = st.builds(
        QC, st.fractions(min_value=-3, max_value=3, max_denominator=4)
    ).filter(lambda c: not c.is_zero())
    return polys(n, simple_coeffs)


@given(simple_polys(3))
@settings(max_examples=100, deadline=None)
def test_render_parse_round_trip(p):
    q = oracles.parse_poly(series.render_poly(p), 3)
    assert (q.n, q.terms()) == (p.n, p.terms())


def test_render_format():
    p = LaurentPoly(2, [((2, -1), QC(2)), ((0, 0), QC(-3)), ((0, 1), QC(Fraction(-1, 2)))])
    assert series.render_poly(p) == "-3 + -1/2*y2 + 2*y1^2*y2^-1"
    assert series.render_poly(LaurentPoly(2)) == "0"
