"""Disc descriptors: Maslov indices, areas, dimension counts."""

import random
from fractions import Fraction

import pytest

from orbifloer import disc, stacky
from orbifloer.errors import PointNotInterior


def test_basic_smooth_discs():
    m = stacky.build_model("teardrop:3")
    discs = disc.basic_smooth_discs(m)
    assert len(discs) == 2
    assert all(disc.maslov_de(m, d) == 2 for d in discs)
    assert [c.mu_cw for c in disc.h2_generators(m) if c.kind == "facet"] == [2, 2]
    m2 = stacky.build_model("wp:1,3,5")
    assert len(disc.basic_smooth_discs(m2)) == 3
    assert len(disc.basic_smooth_discs(stacky.build_model("square:1,1,1,1"))) == 4


def test_basic_orbi_discs():
    m = stacky.build_model("teardrop:3")
    discs = disc.basic_orbi_discs(m)
    assert [c.mu_cw for c in disc.h2_generators(m) if c.kind == "sector"] == [Fraction(2, 3), Fraction(4, 3)]
    assert all(disc.maslov_de(m, d) == 0 for d in discs)
    assert len(disc.basic_orbi_discs(stacky.build_model("wp:1,3,5"))) == 6
    assert disc.basic_orbi_discs(stacky.build_model("square:1,1,1,1")) == []


def test_maslov_raw_multiplicities():
    m = stacky.build_model("teardrop:3")
    assert disc.maslov_de(m, [(7, 3)]) == 4
    assert disc.maslov_de(m, [(1, 1), (5, 2)]) == 6
    assert disc.maslov_de(m, [(2, 3)]) == 0


def test_areas_teardrop():
    m = stacky.build_model("teardrop:3")
    b1, b2 = disc.basic_smooth_discs(m)
    u0 = (Fraction(0),)
    assert disc.area(m, b1, u0) == 1
    assert disc.area(m, b2, u0) == 1
    nu1 = disc.basic_orbi_discs(m)[0]
    u = (Fraction(1, 10),)
    assert disc.area(m, nu1, u) == Fraction(1, 10) + Fraction(1, 3)
    with pytest.raises(PointNotInterior):
        disc.area(m, b1, (Fraction(2),))


def test_area_p135_sector():
    m = stacky.build_model("wp:1,3,5")
    nu2 = disc.basic_orbi_discs(m)[1]
    u = (Fraction(1, 100), Fraction(-1, 50))
    assert disc.area(m, nu2, u) == Fraction(3, 5) - u[0] - 2 * u[1]


def test_virtual_dimension():
    td = stacky.build_model("teardrop:3")
    d = disc.DiscDescriptor((1, 0), (), k_boundary=1)
    assert disc.virtual_dimension(td, d) == 1
    m = stacky.build_model("wp:1,3,5")
    orb = disc.basic_orbi_discs(m)[0]
    d2 = disc.DiscDescriptor(orb.smooth_mults, orb.orb_points, k_boundary=1)
    assert disc.virtual_dimension(m, d2) == 2
    trivial = disc.DiscDescriptor((0, 0, 0))
    assert disc.virtual_dimension(m, trivial) == -1


def test_h2_generators():
    td = stacky.build_model("teardrop:3")
    gens = disc.h2_generators(td)
    assert len(gens) == 4
    m = stacky.build_model("wp:1,3,5")
    gens = disc.h2_generators(m)
    assert len(gens) == 9
    box = stacky.enumerate_box(m)
    for g in gens:
        if g.kind == "facet":
            assert g.boundary == m.facets[g.index].stacky_vector
        else:
            assert g.boundary == box[g.index].nu
    # interior positivity
    u = (Fraction(-1, 100), Fraction(-1, 100))
    assert m.is_interior(u)
    assert all(g.area_at(u) > 0 for g in gens)


def test_index_identity_randomized():
    rng = random.Random(7)
    models = [
        stacky.build_model("teardrop:5"),
        stacky.build_model("wp:1,3,5"),
        stacky.build_model("square:2,2,2,2"),
    ]
    # mu_CW - mu_de is twice the degree shifts on every basic class
    for m in models:
        descriptors = disc.basic_smooth_discs(m) + disc.basic_orbi_discs(m)
        for cls, d in zip(disc.h2_generators(m), descriptors):
            lhs = cls.mu_cw - disc.maslov_de(m, d)
            assert lhs == 2 * sum((s.iota for s in d.orb_points), Fraction(0))
    # and mu_de sees only the facet multiplicities
    for _ in range(300):
        m = rng.choice(models)
        box = stacky.enumerate_box(m)
        mults = tuple(rng.randrange(4) for _ in m.facets)
        orbs = tuple(rng.choice(box) for _ in range(rng.randrange(3))) if box else ()
        d = disc.DiscDescriptor(mults, orbs, rng.randrange(3), rng.randrange(3))
        assert disc.maslov_de(m, d) == 2 * sum(mults)


def test_area_additivity():
    m = stacky.build_model("wp:1,3,5")
    box = stacky.enumerate_box(m)
    d1 = disc.DiscDescriptor((1, 0, 2), (box[0],))
    d2 = disc.DiscDescriptor((0, 1, 0), (box[4],))
    both = disc.DiscDescriptor((1, 1, 2), (box[0], box[4]))
    u = (Fraction(1, 50), Fraction(-1, 50))
    assert disc.area(m, both, u) == disc.area(m, d1, u) + disc.area(m, d2, u)


def test_sector_area_is_weighted_facet_area():
    m = stacky.build_model("wp:1,3,5")
    smooth = disc.basic_smooth_discs(m)
    u = (Fraction(-1, 25), Fraction(1, 30))
    for orb in disc.basic_orbi_discs(m):
        s = orb.orb_points[0]
        expected = sum(
            c * disc.area(m, smooth[j], u) for c, j in zip(s.coeffs, s.facet_indices)
        )
        assert disc.area(m, orb, u) == expected
