"""Exact linear algebra: Smith form, cones, box points, adapted bases."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbifloer import lattice
from orbifloer.errors import DegenerateCone, FlagNotIncreasing, NotUnimodular

entries = st.integers(min_value=-9, max_value=9)


def matrices(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
        )
    )


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_snf_postconditions(rows):
    m = lattice.mat(rows)
    u, d, v = lattice.smith_normal_form(m)
    assert oracles.is_unimodular(u)
    assert oracles.is_unimodular(v)
    assert lattice.mat_mul(lattice.mat_mul(u, m), v) == d
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    nz = [x for x in diag if x != 0]
    assert all(x > 0 for x in nz)
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    assert diag[len(nz) :] == [0] * (len(diag) - len(nz))


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_snf_matches_determinantal_divisors(rows):
    m = lattice.mat(rows)
    _, d, _ = lattice.smith_normal_form(m)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    expected = oracles.snf_diagonal_via_divisors(rows)
    assert [x for x in diag if x != 0] == expected


def square_matrices(side):
    return st.lists(st.lists(entries, min_size=side, max_size=side), min_size=side, max_size=side)


@given(st.integers(1, 4).flatmap(square_matrices))
@settings(max_examples=150, deadline=None)
def test_det_matches_cofactor_expansion(rows):
    assert lattice.det_int(lattice.mat(rows)) == oracles.det_cofactor(rows)


def test_cone_multiplicity_examples():
    c = lattice.SimplicialCone(((1, 0), (1, 5)))
    assert lattice.cone_multiplicity(c) == 5
    c = lattice.SimplicialCone(((-3, -5), (1, 0)))
    assert lattice.cone_multiplicity(c) == 5
    c = lattice.SimplicialCone(((-3, -5), (0, 1)))
    assert lattice.cone_multiplicity(c) == 3
    with pytest.raises(DegenerateCone):
        lattice.cone_multiplicity(lattice.SimplicialCone(((1, 2), (2, 4))))
    flat = lattice.SimplicialCone(((1, 0, 0), (0, 1, 0)))
    for x in ((1, 1, 0), (1, 1, 5)):
        with pytest.raises(DegenerateCone):
            flat.coordinates_of(x)


@given(st.integers(2, 3).flatmap(square_matrices))
@settings(max_examples=100, deadline=None)
def test_dual_basis_pairing(rows):
    if oracles.det_cofactor(rows) == 0:
        with pytest.raises(DegenerateCone):
            lattice.dual_rational_basis(rows)
        return
    dual = lattice.dual_rational_basis(rows)
    n = len(rows)
    for i in range(n):
        for j in range(n):
            assert lattice.dot(rows[i], dual[j]) == (1 if i == j else 0)


def test_box_points_count_and_membership():
    c = lattice.SimplicialCone(((-3, -5), (1, 0)))
    pts = lattice.box_points(c)
    assert len(pts) == lattice.cone_multiplicity(c) - 1
    for v, t in pts:
        assert all(0 <= ti < 1 for ti in t)
        assert any(ti > 0 for ti in t)
        # v really is sum t_i g_i
        for k in range(2):
            s = sum(Fraction(g[k]) * ti for g, ti in zip(c.generators, t))
            assert s == v[k]
    assert ((-1, -2), (Fraction(2, 5), Fraction(1, 5))) in pts


@given(st.integers(2, 3).flatmap(square_matrices))
@settings(max_examples=60, deadline=None)
def test_box_points_random_cones(rows):
    if oracles.det_cofactor(rows) == 0:
        return
    c = lattice.SimplicialCone(tuple(tuple(r) for r in rows))
    pts = lattice.box_points(c)
    assert len(pts) == lattice.cone_multiplicity(c) - 1
    assert len({v for v, _ in pts}) == len(pts)
    for v, t in pts:
        assert t == tuple(x - (x.numerator // x.denominator) for x in c.coordinates_of(v))


def test_integral_basis_unimodular_and_inside():
    trace = []
    c = lattice.SimplicialCone(((1, 0), (1, 5)))
    basis = lattice.integral_basis_in_cone(c, trace)
    assert abs(lattice.det_int(lattice.mat(basis))) == 1
    for b in basis:
        assert c.contains(b)
    assert trace == sorted(trace, reverse=True)
    assert all(a > b for a, b in zip(trace, trace[1:]))
    assert trace[0] == 5 and trace[-1] == 1


@given(st.integers(2, 3).flatmap(square_matrices))
@settings(max_examples=40, deadline=None)
def test_integral_basis_random_cones(rows):
    d = oracles.det_cofactor(rows)
    if d == 0 or abs(d) > 30:
        return
    c = lattice.SimplicialCone(tuple(tuple(r) for r in rows))
    trace = []
    basis = lattice.integral_basis_in_cone(c, trace)
    assert abs(lattice.det_int(lattice.mat(basis))) == 1
    for b in basis:
        assert c.contains(b)
    assert all(a > b for a, b in zip(trace, trace[1:]))


@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_saturated_span_basis_oracle(vectors):
    got = lattice.saturated_span_basis(vectors)
    if lattice.rank_rational([tuple(v) for v in vectors]) == 0:
        assert got == []
        return
    assert oracles.is_saturated_basis_of_span(vectors, [list(v) for v in got])


def test_saturate_flag_small():
    # line spanned by (0,1),(0,-1) inside Z^2, then everything
    basis = lattice.saturate_flag([[(0, 1), (0, -1)], [(0, 1), (0, -1), (1, 0), (-1, -2)]])
    assert len(basis) == 2
    assert abs(lattice.det_int(lattice.mat(basis))) == 1
    assert lattice.rank_rational([basis[0], (0, 1)]) == 1


def test_saturate_flag_saturates_each_level():
    # first group spans a line through (2,4): saturation is generated by (1,2)
    basis = lattice.saturate_flag([[(2, 4)], [(2, 4), (0, 7)]])
    assert basis[0] == (1, 2)
    assert abs(lattice.det_int(lattice.mat(basis))) == 1


def test_saturate_flag_identity_chain():
    assert lattice.saturate_flag([[(1, 0)], [(1, 0), (0, 1)]]) == [(1, 0), (0, 1)]


def test_saturate_flag_rejects_bad_chains():
    with pytest.raises(FlagNotIncreasing):
        lattice.saturate_flag([[(1, 0)], [(2, 0)]])  # never reaches full span
    with pytest.raises(FlagNotIncreasing):
        lattice.saturate_flag([])


@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=1, max_size=2),
    st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=1, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_saturate_flag_random_chains(g1, g2):
    chain = [g1, g1 + g2 + [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    if lattice.rank_rational([tuple(v) for v in g1]) == 0:
        return
    basis = lattice.saturate_flag(chain)
    assert abs(lattice.det_int(lattice.mat(basis))) == 1
    r1 = lattice.rank_rational([tuple(v) for v in g1])
    head = [list(b) for b in basis[:r1]]
    assert oracles.is_saturated_basis_of_span(g1, head)


def test_unimodular_inverse_roundtrip():
    m = ((1, 2, 0), (0, 1, 3), (0, 0, 1))
    inv = lattice.invert_unimodular(m)
    assert lattice.mat_mul(m, inv) == lattice.identity(3)


@pytest.mark.parametrize("m", [((2, 0), (0, 1)), ((3, 1), (1, 1)), ((1, 2), (2, 4)), ((1, 0),)])
def test_invert_unimodular_rejects_other_matrices(m):
    # det 2, det 2, singular, not square: none has an integer inverse
    with pytest.raises(NotUnimodular):
        lattice.invert_unimodular(m)


def elementary_products(max_side=4):
    """Products of elementary integer matrices: row additions, swaps and negations."""

    def build(n, ops):
        m = [list(row) for row in lattice.identity(n)]
        for kind, i, j, k in ops:
            i, j = i % n, j % n
            if kind == 0 and i != j:
                m[i] = [a + k * b for a, b in zip(m[i], m[j])]
            elif kind == 1:
                m[i], m[j] = m[j], m[i]
            elif kind == 2:
                m[i] = [-a for a in m[i]]
        return lattice.mat(m)

    op = st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))
    return st.builds(build, st.integers(1, max_side), st.lists(op, max_size=12))


@given(elementary_products(), st.integers(0, 15), st.integers(-2, 2))
@settings(max_examples=150, deadline=None)
def test_invert_unimodular_matches_oracle(m, where, bump):
    assert oracles.is_unimodular(m)
    inv = lattice.invert_unimodular(m)
    n = len(m)
    assert lattice.mat_mul(m, inv) == lattice.identity(n) == lattice.mat_mul(inv, m)
    # one entry moved: an inverse exactly when the oracle's determinant is +-1
    rows = [list(row) for row in m]
    rows[where % n][where // n % n] += bump
    moved = lattice.mat(rows)
    if oracles.is_unimodular(moved):
        assert lattice.mat_mul(moved, lattice.invert_unimodular(moved)) == lattice.identity(n)
    else:
        with pytest.raises(NotUnimodular):
            lattice.invert_unimodular(moved)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_sympy(rows):
    assert lattice.rank_rational(rows) == sympy.Matrix(rows).rank()


def test_snf_transform_entries_stay_small():
    # this matrix once blew the transforms past 4300 digits (floor quotients);
    # balanced remainders keep them a few digits wide
    a = [[-9, -9, 2, 5, 8], [4, 3, -9, -7, 8], [0, -2, -3, 9, -7], [5, 6, -3, -8, -6]]
    full = a + [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    basis = lattice.saturate_flag([a[:1], a, full])
    assert max(abs(x) for row in basis for x in row) < 10**6
    u, d, v = lattice.smith_normal_form(a)
    assert lattice.mat_mul(lattice.mat_mul(u, a), v) == d
    assert max(abs(x) for m in (u, v) for row in m for x in row) < 10**6


values = st.one_of(entries, st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def deficient_matrices(draw, rows=st.integers(1, 4), cols=st.integers(1, 4)):
    """Integer and rational matrices; a row may be a combination of earlier rows."""
    r, c = draw(rows), draw(cols)
    out = []
    for _ in range(r):
        if out and draw(st.booleans()):
            ks = draw(st.lists(st.integers(-3, 3), min_size=len(out), max_size=len(out)))
            out.append([sum(k * row[j] for k, row in zip(ks, out)) for j in range(c)])
        else:
            out.append(draw(st.lists(values, min_size=c, max_size=c)))
    return out


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(m):
    return [tuple(Fraction(int(e.p), int(e.q)) for e in m.row(i)) for i in range(m.rows)]


@given(deficient_matrices())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_sympy_rref(rows):
    expected = [row for row in from_sympy(to_sympy(rows).rref()[0]) if any(row)]
    assert list(lattice.echelon_rational(rows)) == expected
    assert lattice.rank_rational(rows) == len(expected)


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 4))
    a = draw(deficient_matrices(st.just(n), st.just(n)))
    b = draw(st.lists(values, min_size=n, max_size=n))
    return a, b, draw(deficient_matrices(st.just(n), st.integers(1, 3)))


@given(square_systems())
@settings(max_examples=150, deadline=None)
def test_square_solves_match_sympy(case):
    a, b, rhs = case
    sa = to_sympy(a)
    if sa.det() == 0:
        assert lattice.solve_rational(a, b) is None
        with pytest.raises(DegenerateCone):
            lattice.solve_many(a, rhs)
        return
    inv = sa.inv()
    x = from_sympy(inv * to_sympy([b]).T)
    assert lattice.solve_rational(a, b) == tuple(row[0] for row in x)
    assert list(lattice.solve_many(a, rhs)) == from_sympy(inv * to_sympy(rhs))


@given(deficient_matrices(st.integers(2, 5), st.integers(1, 3)), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_rect_tall_systems(a, data):
    if len(a) <= len(a[0]):
        a = a + [list(a[0])] * (len(a[0]) + 1 - len(a))
    b = data.draw(st.lists(values, min_size=len(a), max_size=len(a)))
    sa = to_sympy(a)
    if sa.rank() < sympy.Matrix.hstack(sa, to_sympy([b]).T).rank():
        with pytest.raises(FlagNotIncreasing):
            lattice._solve_rect(a, b)
        return
    x = lattice._solve_rect(a, b)
    assert [sum(Fraction(e) * xi for e, xi in zip(row, x)) for row in a] == list(b)


def test_solve_rect_inconsistent_example():
    with pytest.raises(FlagNotIncreasing):
        lattice._solve_rect(((1, 0), (0, 1), (1, 1)), (1, 1, 3))
    assert lattice._solve_rect(((1, 0), (0, 1), (1, 1)), (1, 1, 2)) == (1, 1)


def test_doctests():
    import doctest

    import orbifloer.lattice as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
