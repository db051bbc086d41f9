"""Novikov scalars, Laurent polynomials, rendering round trips."""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbifloer import series
from orbifloer.errors import ZeroCoordinate
from orbifloer.series import QC, LaurentPoly, NovikovScalar, SymLin

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def scalars():
    return st.lists(
        st.tuples(rationals, st.builds(QC, rationals, rationals)), min_size=0, max_size=4
    ).map(NovikovScalar)


multiples = st.integers(-4, 4)


@given(scalars(), scalars(), scalars(), multiples, multiples)
@settings(max_examples=100, deadline=None)
def test_scalar_ring_axioms(a, b, c, j, k):
    # the additive group and its integer multiples, the operations scalars offer
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + NovikovScalar() == a
    assert (a + b) * k == a * k + b * k
    assert a * (j + k) == a * j + a * k
    assert (a * j) * k == a * (j * k)
    assert a * 1 == a
    assert (a * 0).is_zero() and (a + a * -1).is_zero()


@given(scalars(), scalars(), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_valuation_inequalities(a, b, k):
    va, vb = oracles.valuation(a), oracles.valuation(b)
    assert oracles.valuation(a + b) >= min(va, vb)
    assert oracles.valuation(a * k) == oracles.valuation(a * -k) == va
    # the leading coefficient sits at the valuation
    if not a.is_zero():
        assert a.terms[0][0] == va and not a.terms[0][1].is_zero()


def test_valuation_and_membership():
    assert oracles.valuation(NovikovScalar()) == inf
    s = NovikovScalar.of(3, Fraction(1, 2)) + NovikovScalar.of(QC(0, 1), 2)
    assert oracles.valuation(s) == Fraction(1, 2) and s.terms[0][1] == QC(3)


def test_symlin_merges_repeated_names():
    c0 = SymLin.symbol("c0")
    assert series.c_add(c0, SymLin(0, (("c0", QC(2)),))) == SymLin(0, (("c0", QC(3)),))
    cancel = series.c_add(c0, SymLin(1, (("c0", QC(-1)),)))
    assert cancel.lin == () and cancel.is_constant() and cancel == SymLin(1)
    assert SymLin(0, (("b", 1), ("a", 2), ("b", 3))).lin == (("a", QC(2)), ("b", QC(4)))
    # two terms on one exponent whose coefficients share a symbol
    p = LaurentPoly(1, [((1,), c0), ((1,), SymLin(0, (("c0", QC(2)),)))])
    assert p.terms() == (((1,), NovikovScalar.of(SymLin(0, (("c0", QC(3)),)))),)


def test_qc_arithmetic():
    z = QC(1, 2) * QC(3, -1)
    assert z == QC(5, 5)
    assert QC(2, 3) * QC(2, -3) == QC(13)


def exponent_vectors(n):
    return st.tuples(*([st.integers(-3, 3)] * n))


def polys(n):
    return st.lists(st.tuples(exponent_vectors(n), scalars()), max_size=4).map(
        lambda ts: LaurentPoly(n, ts)
    )


@given(polys(2), polys(2), polys(2))
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(p, q, r):
    # the additive group, the one operation polynomials offer
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p + LaurentPoly(2) == p


def shifted(p, b, k=1):
    """k * y^b * p, built term by term."""
    return LaurentPoly(p.n, [(tuple(x + y for x, y in zip(e, b)), s * k) for e, s in p.terms()])


@given(polys(2), polys(2), exponent_vectors(2))
@settings(max_examples=60, deadline=None)
def test_derivative_is_linear_and_leibniz(p, q, b):
    for i in range(2):
        unit = tuple(int(j == i) for j in range(2))
        # y_i d/dy_i is y_i times the oracle's d/dy_i
        assert p.log_derivative(i) == shifted(oracles.partial_derivative(p, i), unit)
        assert (p + q).log_derivative(i) == p.log_derivative(i) + q.log_derivative(i)
        # Leibniz with a monomial factor y^b, whose log derivative is b_i * y^b
        assert shifted(p, b).log_derivative(i) == shifted(p.log_derivative(i), b) + shifted(p, b, b[i])


def test_eval_paths_agree():
    p = LaurentPoly(
        2,
        [
            ((1, 0), NovikovScalar.of(1)),
            ((0, -2), NovikovScalar.of(QC(0, 1), Fraction(1, 3))),
        ],
    )
    got = p.eval_complex((2 + 0j, 1j), 0.5)
    expect = 2 + 1j * 0.5 ** (1 / 3) * (1j) ** -2
    assert abs(got - expect) < 1e-12
    with pytest.raises(ZeroCoordinate):
        p.eval_complex((0j, 1j), 0.5)


def test_eval_exact_requires_t_free():
    p = LaurentPoly(1, [((2,), NovikovScalar.of(1)), ((-1,), NovikovScalar.of(-2))])
    assert oracles.eval_exact(p, (QC(2),)) == QC(3)
    q = LaurentPoly(1, [((0,), NovikovScalar.of(1, Fraction(1, 2)))])
    with pytest.raises(ValueError):
        oracles.eval_exact(q, (QC(1),))


def test_monomial_rewrite_unimodular_only():
    # y1*y2 under M = [[1,0],[1,1]] becomes y1'^2 * y2'
    p = LaurentPoly(2, [((1, 1), NovikovScalar.of(1))])
    q = oracles.monomial_rewrite(p, ((1, 0), (1, 1)))
    assert q == LaurentPoly(2, [((2, 1), NovikovScalar.of(1))])
    with pytest.raises(ValueError):
        oracles.monomial_rewrite(p, ((2, 0), (0, 1)))


def test_monomial_rewrite_identity_and_inverse():
    p = LaurentPoly(2, [((1, 0), NovikovScalar.of(1)), ((0, 1), NovikovScalar.of(2))])
    assert oracles.monomial_rewrite(p, ((1, 0), (0, 1))) == p
    m = ((1, 1), (0, 1))
    minv = ((1, -1), (0, 1))
    assert oracles.monomial_rewrite(oracles.monomial_rewrite(p, m), minv) == p


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
    simple_scalars = st.lists(
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            st.builds(QC, st.fractions(min_value=-3, max_value=3, max_denominator=4),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4)),
        ),
        max_size=3,
    ).map(NovikovScalar)
    return st.lists(st.tuples(exponent_vectors(n), simple_scalars), max_size=3).map(
        lambda ts: LaurentPoly(n, ts)
    )


@given(simple_polys(3))
@settings(max_examples=100, deadline=None)
def test_render_parse_round_trip(p):
    text = series.render_poly(p)
    assert oracles.parse_poly(text, 3) == p


def test_render_format():
    p = LaurentPoly(
        2,
        [
            ((2, -1), NovikovScalar.of(2, Fraction(1, 2))),
            ((0, 0), NovikovScalar.of(QC(1, -3))),
        ],
    )
    assert series.render_poly(p) == "(1-3i) + 2*T^{1/2}*y1^2*y2^-1"
    assert series.render_poly(LaurentPoly(2)) == "0"
