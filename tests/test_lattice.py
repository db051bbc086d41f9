"""Exact linear algebra: the Hermite form, cones, box points, adapted bases."""

from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbifloer import lattice, ltsolver
from orbifloer.errors import DegenerateCone
from orbifloer.region import enumerate_scenarios
from orbifloer.series import QC
from orbifloer.stacky import build_model

entries = st.integers(min_value=-9, max_value=9)


def matrices(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
        )
    )


def square_matrices(side):
    return st.lists(st.lists(entries, min_size=side, max_size=side), min_size=side, max_size=side)


@given(st.integers(1, 4).flatmap(square_matrices))
@settings(max_examples=150, deadline=None)
def test_det_matches_cofactor_expansion(rows):
    assert lattice.det_int(tuple(map(tuple, rows))) == oracles.det_cofactor(rows)


def test_cone_multiplicity_examples():
    c = lattice.SimplicialCone(((1, 0), (1, 5)))
    assert lattice.cone_multiplicity(c) == 5
    c = lattice.SimplicialCone(((-3, -5), (1, 0)))
    assert lattice.cone_multiplicity(c) == 5
    c = lattice.SimplicialCone(((-3, -5), (0, 1)))
    assert lattice.cone_multiplicity(c) == 3
    with pytest.raises(DegenerateCone):
        lattice.cone_multiplicity(lattice.SimplicialCone(((1, 2), (2, 4))))


@pytest.mark.parametrize("gens", [((1, 0), (0, 1), (1, 1)), ((1, 0, 0), (0, 1, 0))])
def test_cone_needs_one_generator_per_dimension(gens):
    with pytest.raises(DegenerateCone, match=f"^{len(gens)} generators in dimension {len(gens[0])}:"):
        lattice.SimplicialCone(gens)


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


@st.composite
def cones(draw, dims=st.integers(1, 4)):
    """Generators of a full-dimensional cone in any order, so det may be negative.

    Entries shrink with the dimension to keep the scan oracle's bounding box small.
    """
    n = draw(dims)
    bound = {1: 9, 2: 9, 3: 4, 4: 2}[n]
    gens = draw(
        st.lists(
            st.tuples(*[st.integers(-bound, bound)] * n), min_size=n, max_size=n
        ).filter(lambda g: oracles.det_cofactor([list(v) for v in g]) != 0)
    )
    return draw(st.permutations(gens))


@given(cones())
@settings(max_examples=200, deadline=None)
def test_box_points_random_cones(gens):
    c = lattice.SimplicialCone(tuple(gens))
    pts = lattice.box_points(c)
    assert len(pts) == lattice.cone_multiplicity(c) - 1
    assert len({v for v, _ in pts}) == len(pts)
    for v, t in pts:
        assert all(type(ti) is Fraction for ti in t)
        coords = oracles.cone_coordinates(c.generators, v)
        assert t == tuple(x - (x.numerator // x.denominator) for x in coords)
    assert pts == oracles.box_points_by_scan(gens)


@pytest.mark.parametrize(
    "gens",
    [
        ((1,),),
        ((-1,),),
        ((5,),),
        ((-7,),),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)),
        ((2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (1, 0, 0, -2)),
        ((-1, -2, -3, -5), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
        ((3, 0, 1, -1), (1, -2, 0, 1), (0, 1, 3, 0), (-1, 1, 1, 2)),
    ],
)
def test_box_points_match_scan_oracle_in_one_and_four_dimensions(gens):
    c = lattice.SimplicialCone(gens)
    pts = lattice.box_points(c)
    assert len(pts) == lattice.cone_multiplicity(c) - 1
    assert pts == oracles.box_points_by_scan(gens)


@given(cones(st.integers(2, 4)))
@settings(max_examples=150, deadline=None)
def test_cramer_multiplicity_equals_det_int(gens):
    # swapping g_i for w = v / content(v) scales |det| by t_i / content(v)
    mult = abs(lattice.det_int(tuple(gens)))
    for v, t in lattice.box_points(lattice.SimplicialCone(tuple(gens))):
        d = lattice.content(v)
        w = tuple(x // d for x in v)
        for i, ti in enumerate(t):
            swapped = tuple(gens[:i]) + (w,) + tuple(gens[i + 1 :])
            assert mult * ti / d == abs(lattice.det_int(swapped))


@given(cones(st.integers(1, 3)))
@settings(max_examples=100, deadline=None)
def test_integral_basis_matches_determinant_scoring(gens):
    trace, expected_trace = [], []
    basis = lattice.integral_basis_in_cone(lattice.SimplicialCone(tuple(gens)), trace)
    assert basis == oracles.integral_basis_by_det(gens, expected_trace)
    assert trace == expected_trace


def test_integral_basis_unimodular_and_inside():
    trace = []
    c = lattice.SimplicialCone(((1, 0), (1, 5)))
    basis = lattice.integral_basis_in_cone(c, trace)
    assert abs(lattice.det_int(tuple(basis))) == 1
    for b in basis:
        assert oracles.in_cone(c.generators, b)
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
    assert abs(lattice.det_int(tuple(basis))) == 1
    for b in basis:
        assert oracles.in_cone(c.generators, b)
    assert all(a > b for a, b in zip(trace, trace[1:]))


def hermite_basis(groups, n):
    """column_hermite of the groups stacked in order, with the rank after each group."""
    rows = [tuple(v) for g in groups for v in g]
    h, w, sign = lattice.column_hermite(rows, n)
    ranks, seen = [], []
    for g in groups:
        seen += [tuple(v) for v in g]
        ranks.append(lattice.rank_rational(seen))
    return rows, h, w, sign, ranks


def test_hermite_basis_small():
    # line spanned by (0,1),(0,-1) inside Z^2, then everything
    _, h, w, sign, _ = hermite_basis([[(0, 1), (0, -1)], [(1, 0), (-1, -2)]], 2)
    assert w == [[0, 1], [1, 0]] and sign == -1
    assert h == [[1, 0], [-1, 0], [0, 1], [-2, -1]]


def test_hermite_basis_saturates_each_level():
    # first group spans a line through (2,4): saturation is generated by (1,2)
    _, h, w, _, _ = hermite_basis([[(2, 4)], [(0, 7)]], 2)
    assert w[0] == [1, 2]
    assert h == [[2, 0], [0, 7]]
    assert abs(lattice.det_int(tuple(map(tuple, w)))) == 1


def test_hermite_basis_identity_chain():
    assert lattice.column_hermite(((1, 0), (0, 1)), 2) == ([[1, 0], [0, 1]], [[1, 0], [0, 1]], 1)


def test_hermite_centres_the_residues_left_of_a_pivot():
    # (1, 7) reads as (-5, 16) against the pivot 16: -5 is its residue in (-8, 8]
    h, w, sign = lattice.column_hermite(((3, 5), (1, 7)), 2)
    assert (h, w, sign) == ([[1, 0], [-5, 16]], [[3, 5], [1, 2]], 1)
    # a residue of exactly p/2 stays positive
    h, _, _ = lattice.column_hermite(((1, 0), (2, 4)), 2)
    assert h == [[1, 0], [2, 4]]
    h, _, _ = lattice.column_hermite(((1, 0), (-2, 4)), 2)
    assert h == [[1, 0], [2, 4]]


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_column_hermite_of_rows_of_any_rank(rows):
    # short, tall and rank-deficient stacks: one pivot per unit of rank
    n = len(rows[0])
    h, w, sign = lattice.column_hermite(rows, n)
    assert oracles.is_unimodular(w)
    assert oracles.is_column_hermite(rows, h, w, sign)
    pivots = sum(1 for i in range(n) if any(row[i] for row in h))
    assert pivots == lattice.rank_rational([tuple(r) for r in rows])


def unimodular_columns(n):
    """An n x n unimodular matrix: a few column swaps, negations and
    additions applied to the identity."""
    step = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))

    def build(steps):
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for a, b, q in steps:
            for row in u:
                if a == b:
                    row[a] = -row[a]
                elif q == 0:
                    row[a], row[b] = row[b], row[a]
                else:
                    row[a] += q * row[b]
        return u

    return st.lists(step, max_size=6).map(build)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n + 2),
            unimodular_columns(n),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_column_hermite_is_unique_for_full_rank(case):
    # M and M U have one H when M has rank n; their W differ by U
    rows, u = case
    n = len(u)
    if lattice.rank_rational([tuple(r) for r in rows]) < n:
        rows = rows + [[int(i == j) for j in range(n)] for i in range(n)]
    h, w, sign = lattice.column_hermite(rows, n)
    moved = [list(r) for r in oracles.mat_mul(rows, u)]
    h2, w2, sign2 = lattice.column_hermite(moved, n)
    assert h2 == h
    assert oracles.mat_mul(w, u) == tuple(map(tuple, w2))
    assert sign2 == sign * oracles.det_cofactor(u)


def level_groups():
    """(groups, last, n): up to three groups of small vectors in n = 2..4
    dimensions, and an n x n group to follow them so the stack spans."""

    def build(n):
        vectors = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
        groups = st.lists(st.lists(vectors, min_size=1, max_size=3), min_size=1, max_size=3)
        last = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
        return st.tuples(groups, last, st.just(n))

    return st.integers(2, 4).flatmap(build)


@given(level_groups())
@settings(max_examples=150, deadline=None)
def test_hermite_basis_is_adapted_to_random_level_groups(case):
    groups, last, n = case
    if lattice.rank_rational([tuple(v) for v in last]) < n:
        last = [[int(i == j) for j in range(n)] for i in range(n)]
    groups = groups + [last]
    rows, h, w, sign, ranks = hermite_basis(groups, n)
    assert oracles.is_unimodular(w)
    assert oracles.is_column_hermite(rows, h, w, sign)
    seen = []
    for g, r in zip(groups, ranks):
        seen += g
        assert oracles.is_saturated_basis_of_span(seen, w[:r])
        # each group's rows live in the first r columns
        assert not any(x for row in h[: len(seen)] for x in row[r:])


def _stratification(m, s):
    """The stratification of a scenario, every member with coefficient 1."""
    coeffs = {tag: QC(1) for tags in s.levels for tag in tags}
    return ltsolver.scenario_stratification(m, s.levels, coeffs)


def test_hermite_basis_on_leaf_stacks(monkeypatch):
    # the stacks the leaves of a region pass for their adapted bases
    stacks = []
    real = ltsolver.column_hermite

    def record(rows, n):
        out = real(rows, n)
        stacks.append((rows, *out))
        return out

    monkeypatch.setattr(ltsolver, "column_hermite", record)
    m = build_model("square:2,2,1,1")
    leaves = enumerate_scenarios(m)
    for s in leaves:
        strat = _stratification(m, s)
        rows, h, w, sign = stacks[-1]
        assert oracles.is_column_hermite(rows, h, w, sign)
        assert strat.adapted_basis == tuple(map(tuple, w))
        seen = []
        for lv in strat.levels:
            seen += lv.directions
            assert oracles.is_saturated_basis_of_span(seen, w[: lv.span_dim])
    assert len(stacks) == len(leaves)


def test_leaf_exponents_rebuild_each_level_in_the_adapted_basis():
    # strat.exponents, cut from H level by level, read each member's
    # direction back in the basis and own no coordinate past its level
    m = build_model("wp:1,3,5")
    leaves = enumerate_scenarios(m)
    assert leaves
    for s in leaves:
        strat = _stratification(m, s)
        assert len(strat.exponents) == len(strat.levels)
        for lv, exponents in zip(strat.levels, strat.exponents):
            assert len(exponents) == len(lv.directions)
            for e, d in zip(exponents, lv.directions):
                assert oracles.mat_mul([e], strat.adapted_basis) == (tuple(d),)
                assert not any(e[lv.span_dim :])


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_sympy(rows):
    assert lattice.rank_rational(rows) == sympy.Matrix(rows).rank()


@st.composite
def rows_of_any_rank(draw):
    # rows that are integer combinations of at most ncols generators, so
    # every rank from 0 to ncols shows up, rank ncols - 1 among them
    ncols = draw(st.integers(1, 5))
    gens = draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), max_size=ncols))
    nrows = draw(st.integers(1, 6))
    mix = st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens))
    return [
        tuple(sum(c * g[j] for c, g in zip(draw(mix), gens)) for j in range(ncols)) for _ in range(nrows)
    ]


@given(rows_of_any_rank())
@settings(max_examples=300, deadline=None)
def test_kernel_is_a_primitive_basis_of_the_null_space(rows):
    n = len(rows[0])
    basis = lattice.kernel(rows, n)
    null = sympy.Matrix(rows).nullspace()
    assert len(basis) == len(null) == n - sympy.Matrix(rows).rank()
    for x in basis:
        assert len(x) == n and all(type(e) is int for e in x)
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)
        assert gcd(*x) == 1
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)
    if len(basis) == 1:
        # rank n - 1: sympy's rational null vector, cleared of denominators
        # and content, is the one vector up to sign
        q = lcm(*(int(e.q) for e in null[0]))
        ints = [int(e * q) for e in null[0]]
        expected = tuple(x // gcd(*ints) for x in ints)
        assert basis[0] in (expected, tuple(-x for x in expected))


def test_hermite_transform_entries_stay_small():
    # this matrix once blew a normal form's transforms past 4300 digits
    # (floor quotients); centred residues keep them a few digits wide
    a = [[-9, -9, 2, 5, 8], [4, 3, -9, -7, 8], [0, -2, -3, 9, -7], [5, 6, -3, -8, -6]]
    full = a + [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    h, basis, _ = lattice.column_hermite(full, 5)
    assert max(abs(x) for m in (h, basis) for row in m for x in row) < 10**6


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


@given(oracles.equality_systems())
@settings(max_examples=200, deadline=None)
def test_echelon_matches_sympy_rref(system):
    n, rows = system
    want, want_pivots = [], ()
    if rows:
        reduced, want_pivots = sympy.Matrix(rows).rref()
        want = [row for row in reduced.tolist() if any(row)]

    def check(ncols):
        reduced, pivots, rest = lattice.echelon(rows, ncols)
        assert pivots == [k for k in want_pivots if k < ncols]
        for row, k in zip(reduced, pivots):
            assert row[k] > 0 and lattice.is_primitive(row)
            assert all(row[j] == 0 for j in pivots if j != k)
        assert all(not any(row[:ncols]) for row in rest)
        return [[Fraction(x, row[k]) for x in row] for row, k in zip(reduced, pivots)], rest

    # the span key: every column a pivot column
    assert check(n + 1) == (want, [[0] * (n + 1)] * (len(rows) - len(want)))
    assert lattice.rank_rational([[Fraction(x, 3) for x in row] for row in rows]) == len(want)
    # the equality system: the last column is a constant, and a conflict
    # (a row reading 0 = nonzero) is a leftover row with a nonzero constant
    reduced, rest = check(n)
    assert any(row[n] for row in rest) == (n in want_pivots)
    if n not in want_pivots:
        assert reduced == want


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 4))
    a = draw(deficient_matrices(st.just(n), st.just(n)))
    b = draw(st.lists(values, min_size=n, max_size=n))
    return a, b


@given(square_systems())
@settings(max_examples=150, deadline=None)
def test_square_solves_match_sympy(case):
    # each row of [a | b] cleared of denominators: the same system in integers
    a, b = case
    rows = [lattice.cleared([*row, bi]) for row, bi in zip(a, b)]
    n = len(a)
    solved = lattice.solve_integer([row[:n] for row in rows], [row[n:] for row in rows])
    sa = to_sympy(a)
    if sa.det() == 0:
        assert solved is None
        return
    x, d = solved
    assert d > 0 and all(type(e) is int for row in x for e in row)
    expected = from_sympy(sa.inv() * to_sympy([b]).T)
    assert [Fraction(row[0], d) for row in x] == [row[0] for row in expected]


def test_doctests():
    import doctest

    import orbifloer.lattice as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
