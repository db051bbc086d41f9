"""Basic disc classes: counts, Maslov indices, areas, dimension counts."""

import random
from fractions import Fraction

from orbifloer import disc, stacky


def _classes(m, kind):
    return [c for c in disc.h2_generators(m) if c.kind == kind]


def test_basic_smooth_discs():
    m = stacky.build_model("teardrop:3")
    facets = _classes(m, "facet")
    assert len(facets) == 2
    assert [c.mu_de for c in facets] == [2, 2]
    assert [c.mu_cw for c in facets] == [2, 2]
    assert len(_classes(stacky.build_model("wp:1,3,5"), "facet")) == 3
    assert len(_classes(stacky.build_model("square:1,1,1,1"), "facet")) == 4


def test_basic_orbi_discs():
    m = stacky.build_model("teardrop:3")
    sectors = _classes(m, "sector")
    assert [c.mu_cw for c in sectors] == [Fraction(2, 3), Fraction(4, 3)]
    assert [c.mu_de for c in sectors] == [0, 0]
    assert len(_classes(stacky.build_model("wp:1,3,5"), "sector")) == 6
    assert _classes(stacky.build_model("square:1,1,1,1"), "sector") == []


def test_areas_teardrop():
    m = stacky.build_model("teardrop:3")
    b1, b2 = _classes(m, "facet")
    u0 = (Fraction(0),)
    assert b1.area_at(u0) == 1
    assert b2.area_at(u0) == 1
    nu1 = _classes(m, "sector")[0]
    u = (Fraction(1, 10),)
    assert nu1.area_at(u) == Fraction(1, 10) + Fraction(1, 3)


def test_area_p135_sector():
    m = stacky.build_model("wp:1,3,5")
    nu2 = _classes(m, "sector")[1]
    u = (Fraction(1, 100), Fraction(-1, 50))
    assert nu2.area_at(u) == Fraction(3, 5) - u[0] - 2 * u[1]


def test_virtual_dimension():
    # n + mu_de + 2 * (interior marked points) - 3: n - 1 on every basic class
    for preset in ("teardrop:3", "wp:1,3,5", "square:2,2,1,1", "wp:1,2,3,5"):
        m = stacky.build_model(preset)
        assert {c.virtual_dim for c in disc.h2_generators(m)} == {m.dim - 1}


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
    # mu_CW - mu_de is twice the degree shift of the class's orbifold point
    for m in models:
        box = stacky.enumerate_box(m)
        for cls in disc.h2_generators(m):
            shift = box[cls.index].iota if cls.kind == "sector" else 0
            assert cls.mu_cw - cls.mu_de == 2 * shift
    # and the area form is the class's energy ell_j or ell_nu at seeded
    # interior points, convex combinations of the vertices with weights 1..9
    for _ in range(300):
        m = rng.choice(models)
        w = [rng.randint(1, 9) for _ in m.vertices]
        u = tuple(sum(wi * Fraction(v[k]) for wi, v in zip(w, m.vertices)) / sum(w) for k in range(m.dim))
        box = stacky.enumerate_box(m)
        for cls in disc.h2_generators(m):
            if cls.kind == "facet":
                assert cls.area_at(u) == m.ell(cls.index, u)
            else:
                assert cls.area_at(u) == stacky.sector_ell(m, box[cls.index], u)


def test_sector_area_is_weighted_facet_area():
    m = stacky.build_model("wp:1,3,5")
    smooth = _classes(m, "facet")
    box = stacky.enumerate_box(m)
    u = (Fraction(-1, 25), Fraction(1, 30))
    for orb in _classes(m, "sector"):
        s = box[orb.index]
        expected = sum(c * smooth[j].area_at(u) for c, j in zip(s.coeffs, s.facet_indices))
        assert orb.area_at(u) == expected
