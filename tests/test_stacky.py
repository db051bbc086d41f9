"""Moment polytope validation, presets, and twisted sector enumeration."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from orbifloer import lattice, stacky
from orbifloer.errors import (
    EmptyInterior,
    InputError,
    NonPrimitiveNormal,
    NotSimple,
    Unbounded,
)


def test_teardrop_preset():
    m = stacky.build_model("teardrop:3")
    assert m.dim == 1
    assert [f.stacky_vector for f in m.facets] == [(3,), (-1,)]
    assert m.vertices == ((Fraction(-1, 3),), (Fraction(1),))
    assert lattice.cone_multiplicity(m.cones[0]) == 3
    assert lattice.cone_multiplicity(m.cones[1]) == 1
    box = stacky.enumerate_box(m)
    assert [s.nu for s in box] == [(1,), (2,)]
    assert [s.iota for s in box] == [Fraction(1, 3), Fraction(2, 3)]
    assert [s.order for s in box] == [3, 3]
    # ell_nu(u) = k (u + 1/3)
    assert stacky.sector_ell(m, box[0], (Fraction(1, 10),)) == Fraction(13, 30)
    assert stacky.sector_ell(m, box[1], (Fraction(0),)) == Fraction(2, 3)


def test_wp135_preset():
    m = stacky.build_model("wp:1,3,5")
    assert [f.stacky_vector for f in m.facets] == [(-3, -5), (1, 0), (0, 1)]
    assert [f.offset for f in m.facets] == [Fraction(-1)] * 3
    assert m.vertices == (
        (Fraction(-1), Fraction(-1)),
        (Fraction(-1), Fraction(4, 5)),
        (Fraction(2), Fraction(-1)),
    )
    box = stacky.enumerate_box(m)
    assert [s.nu for s in box] == [
        (0, -1),
        (-1, -2),
        (-1, -3),
        (-2, -4),
        (-1, -1),
        (-2, -3),
    ]
    assert [s.iota for s in box] == [
        Fraction(4, 5),
        Fraction(3, 5),
        Fraction(7, 5),
        Fraction(6, 5),
        Fraction(1),
        Fraction(1),
    ]
    assert [s.order for s in box] == [5, 5, 5, 5, 3, 3]
    # published area forms: ell_nu1 = 4/5 - u2, ell_nu2 = 3/5 - u1 - 2 u2
    u = (Fraction(1, 20), Fraction(0))
    assert stacky.sector_ell(m, box[0], u) == Fraction(4, 5)
    assert stacky.sector_ell(m, box[1], u) == Fraction(11, 20)


def test_wp_label_extraction():
    # weights (1, 2, 4): common divisor 2 becomes the label of the slant facet
    m = stacky.build_model("wp:1,2,4")
    f = m.facets[0]
    assert f.normal == (-1, -2)
    assert f.label == 2
    assert f.stacky_vector == (-2, -4)


def test_smooth_square_has_no_sectors():
    m = stacky.build_model("square:1,1,1,1")
    assert len(m.cones) == 4
    assert all(lattice.cone_multiplicity(c) == 1 for c in m.cones)
    assert stacky.enumerate_box(m) == []


def test_labeled_square_sectors_and_dedup():
    m = stacky.build_model("square:2,2,2,2")
    box = stacky.enumerate_box(m)
    assert len(box) == 8
    edge = [s for s in box if len(s.support) == 1]
    corner = [s for s in box if len(s.support) == 2]
    assert len(edge) == 4 and len(corner) == 4
    assert all(s.order == 2 for s in box)
    assert all(s.iota == Fraction(1, 2) for s in edge)
    assert all(s.iota == Fraction(1) for s in corner)
    assert len({s.nu for s in box}) == 8


def test_sector_inverse_pairing():
    # nu' = sum (1-c_i) b_i has iota(nu) + iota(nu') = #nonzero coefficients
    m = stacky.build_model("wp:1,3,5")
    box = stacky.enumerate_box(m)
    by_nu = {s.nu: s for s in box}
    for s in box:
        if any(c == 0 for c in s.coeffs):
            continue
        gens = [m.facets[i].stacky_vector for i in s.facet_indices]
        inv = tuple(
            sum((1 - c) * g[k] for c, g in zip(s.coeffs, gens)) for k in range(m.dim)
        )
        inv = tuple(int(x) for x in inv)
        assert inv in by_nu
        assert s.iota + by_nu[inv].iota == len(s.coeffs)


def test_explicit_json_model():
    desc = {
        "dim": 2,
        "facets": [
            {"normal": [1, 0], "label": 1, "offset": "0"},
            {"normal": [0, 1], "label": 1, "offset": "0"},
            {"normal": [-1, -1], "label": 1, "offset": "-1"},
        ],
    }
    m = stacky.build_model(desc)
    assert len(m.vertices) == 3
    assert m.is_interior((Fraction(1, 4), Fraction(1, 4)))
    assert not m.is_interior((Fraction(1, 2), Fraction(1, 2)))


def test_validation_errors():
    with pytest.raises(NonPrimitiveNormal):
        stacky.build_model(
            {
                "dim": 1,
                "facets": [
                    {"normal": [2], "label": 1, "offset": "0"},
                    {"normal": [-1], "label": 1, "offset": "-1"},
                ],
            }
        )
    with pytest.raises(Unbounded):
        stacky.build_model(
            {
                "dim": 2,
                "facets": [
                    {"normal": [1, 0], "label": 1, "offset": "0"},
                    {"normal": [0, 1], "label": 1, "offset": "0"},
                    {"normal": [-1, 0], "label": 1, "offset": "-1"},
                ],
            }
        )
    with pytest.raises(NotSimple):
        # three facets meet at the origin
        stacky.build_model(
            {
                "dim": 2,
                "facets": [
                    {"normal": [1, 0], "label": 1, "offset": "0"},
                    {"normal": [0, 1], "label": 1, "offset": "0"},
                    {"normal": [1, 1], "label": 1, "offset": "0"},
                    {"normal": [-1, 0], "label": 1, "offset": "-1"},
                    {"normal": [0, -1], "label": 1, "offset": "-1"},
                ],
            }
        )
    with pytest.raises(NotSimple):
        # redundant facet supports nothing
        stacky.build_model(
            {
                "dim": 2,
                "facets": [
                    {"normal": [1, 0], "label": 1, "offset": "0"},
                    {"normal": [0, 1], "label": 1, "offset": "0"},
                    {"normal": [-1, 0], "label": 1, "offset": "-1"},
                    {"normal": [0, -1], "label": 1, "offset": "-1"},
                    {"normal": [1, 1], "label": 1, "offset": "-5"},
                ],
            }
        )
    with pytest.raises(EmptyInterior):
        stacky.build_model(
            {
                "dim": 1,
                "facets": [
                    {"normal": [1], "label": 1, "offset": "1"},
                    {"normal": [-1], "label": 1, "offset": "0"},
                ],
            }
        )
    with pytest.raises(InputError):
        stacky.build_model("wp:5,3")
    with pytest.raises(InputError):
        stacky.build_model("heptagon:7")


def test_interval_preset_forms():
    m = stacky.build_model("interval:2,2")
    u = (Fraction(3, 10),)
    assert m.ell(0, u) == Fraction(3, 5)  # 2u
    assert m.ell(1, u) == Fraction(7, 5)  # 2(1-u)
    box = stacky.enumerate_box(m)
    assert [(s.nu, s.iota) for s in box] == [((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))]
    assert stacky.sector_ell(m, box[0], u) == Fraction(3, 10)  # u
    assert stacky.sector_ell(m, box[1], u) == Fraction(7, 10)  # 1-u


PRESETS = (
    "teardrop:3",
    "teardrop:5",
    "interval:2,2",
    "interval:1,3",
    "wp:1,2,2",
    "wp:1,1,3",
    "wp:1,3,5",
    "wp:1,3,7",
    "wp:1,2,3,5",
    "wp:1,3,5,7",
    "wp:1,1,2,2",
    "square:1,1,1,1",
    "square:2,2,1,1",
    "square:2,2,2,2",
    "square:3,2,3,2",
)


def check_vertices_against_fractions(description):
    """build_model's integer vertex enumeration against the Fraction oracle.

    Both give the same vertices and cones, or the same error and message.
    """
    try:
        m = stacky.build_model(description)
    except Unbounded:
        # refused before any vertex is solved
        return None
    except (NotSimple, EmptyInterior) as e:
        m, error = None, e
    desc = stacky.preset_description(description) if isinstance(description, str) else description
    if "preset" in desc:
        facets = stacky._weighted_projective_facets(desc["weights"])
    else:
        facets = [
            stacky.Facet(tuple(f["normal"]), f["label"], Fraction(f["offset"])) for f in desc["facets"]
        ]
    b = [f.stacky_vector for f in facets]
    lam = [f.offset for f in facets]
    if m is None:
        with pytest.raises(type(error)) as expected:
            oracles.vertices_by_fractions(b, lam, len(b[0]))
        assert str(expected.value) == str(error)
        return error
    verts, vertex_map = oracles.vertices_by_fractions(b, lam, m.dim)
    assert m.vertices == tuple(verts)
    assert all(type(x) is Fraction for v in m.vertices for x in v)
    assert [c.facet_indices for c in m.cones] == [vertex_map[v] for v in verts]
    return m


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_vertices_match_fraction_enumeration(preset):
    assert isinstance(check_vertices_against_fractions(preset), stacky.StackyModel)


@st.composite
def polytopes(draw):
    """n+1 to n+3 facets with small primitive normals, labels and rational offsets.

    The last normal is minus the sum of the others, so the normals span
    positively and the polytope is bounded once they span; offsets are
    mostly negative, which keeps the origin inside.
    """
    n = draw(st.integers(1, 3))
    k = draw(st.integers(n, n + 2))
    normals = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)) for _ in range(k)]
    closing = [-sum(col) for col in zip(*normals)]
    normals.append(closing if any(closing) else [-1] * n)
    facets = []
    for normal in normals:
        g = gcd(*normal)
        offset = draw(st.fractions(min_value=-3, max_value=Fraction(1, 2), max_denominator=4))
        facets.append(
            {
                "normal": [x // g for x in normal],
                "label": draw(st.integers(1, 3)),
                "offset": str(offset),
            }
        )
    return {"dim": n, "facets": facets}


@given(polytopes())
@settings(max_examples=300, deadline=None)
def test_random_polytope_vertices_match_fraction_enumeration(desc):
    check_vertices_against_fractions(desc)


def test_vertex_errors_keep_their_messages():
    # three facets through the origin, and an interval shrunk to a point
    through_origin = {
        "dim": 2,
        "facets": [
            {"normal": [1, 0], "label": 1, "offset": "0"},
            {"normal": [0, 1], "label": 1, "offset": "0"},
            {"normal": [1, 1], "label": 1, "offset": "0"},
            {"normal": [-1, 0], "label": 1, "offset": "-1"},
            {"normal": [0, -1], "label": 1, "offset": "-1"},
        ],
    }
    error = check_vertices_against_fractions(through_origin)
    assert str(error) == "vertex (Fraction(0, 1), Fraction(0, 1)) lies on 3 facets"
    point = {
        "dim": 1,
        "facets": [
            {"normal": [1], "label": 2, "offset": "1/2"},
            {"normal": [-1], "label": 1, "offset": "-1/4"},
        ],
    }
    error = check_vertices_against_fractions(point)
    assert str(error) == "vertex (Fraction(1, 4),) lies on 2 facets"
    empty = {
        "dim": 1,
        "facets": [
            {"normal": [1], "label": 1, "offset": "1/3"},
            {"normal": [-1], "label": 3, "offset": "0"},
        ],
    }
    error = check_vertices_against_fractions(empty)
    assert str(error) == "no vertices: the constraint system is infeasible or degenerate"


@given(polytopes(), st.data())
@settings(max_examples=100, deadline=None)
def test_is_interior_matches_the_fraction_forms(desc, data):
    # the integer test against ell_j(u) > 0 in Fractions, at random points,
    # at the vertices and on each facet, where no point is interior
    try:
        m = stacky.build_model(desc)
    except (Unbounded, NotSimple, EmptyInterior):
        assume(False)

    def by_fractions(u):
        return all(m.ell(j, u) > 0 for j in range(len(m.facets)))

    q = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    for _ in range(4):
        u = tuple(data.draw(q) for _ in range(m.dim))
        assert m.is_interior(u) == by_fractions(u)
    weights = [data.draw(st.integers(1, 5)) for _ in m.vertices]
    inside = tuple(
        sum(w * v[k] for w, v in zip(weights, m.vertices)) / sum(weights) for k in range(m.dim)
    )
    assert m.is_interior(inside) and by_fractions(inside)
    boundary = list(m.vertices)
    for j in range(len(m.facets)):
        on = [v for v in m.vertices if m.ell(j, v) == 0]
        if on:
            boundary.append(tuple(sum(v[k] for v in on) / len(on) for k in range(m.dim)))
    for u in boundary:
        assert not m.is_interior(u) and not by_fractions(u)
