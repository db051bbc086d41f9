"""Acceptance gate: one behavior per test, ordered, each its own pass line.

Randomized checks are seeded, so this file is deterministic end to end.
"""

import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import prod

from orbifloer.disc import h2_generators
from orbifloer.lattice import (
    SimplicialCone,
    cone_multiplicity,
    column_hermite,
    det_int,
    integral_basis_in_cone,
    rank_rational,
)
from orbifloer.potential import critical_points, smooth_leading_potential, wp_central_critical
from orbifloer.region import interval_union, nondisplaceable_region, piece_geometry, query_point
from orbifloer.stacky import build_model, enumerate_box, sector_ell_form

import oracles


@lru_cache(maxsize=None)
def region(preset: str):
    return nondisplaceable_region(build_model(preset))


# 1 ------------------------------------------------------------------------


def test_teardrop_region_intervals_exact():
    for a in (2, 3, 5):
        want = [(Fraction(-1, a), False, Fraction(1 - Fraction(1, a), 2), True)]
        assert interval_union(region(f"teardrop:{a}")) == want


# 2 ------------------------------------------------------------------------


def test_teardrop_center_critical_roots():
    for a in (2, 3, 5):
        pot = smooth_leading_potential(build_model(f"teardrop:{a}"), (Fraction(0),))
        pts = critical_points(pot, t_value=0.5)
        assert len(pts) == a + 1
        for p in pts:
            assert p.residual < 1e-12
            assert abs(p.y[0] ** (a + 1) - Fraction(1, a)) < 1e-12


# 3 ------------------------------------------------------------------------


def test_p135_box_sectors_and_area_forms():
    m = build_model("wp:1,3,5")
    box = enumerate_box(m)
    assert {s.nu for s in box} == {
        (0, -1),
        (-1, -2),
        (-1, -3),
        (-2, -4),
        (-1, -1),
        (-2, -3),
    }
    forms = {s.nu: sector_ell_form(m, s) for s in box}
    assert forms[(0, -1)] == ((0, -1), Fraction(4, 5))
    assert forms[(-1, -2)] == ((-1, -2), Fraction(3, 5))


# 4 ------------------------------------------------------------------------


def test_p1aa_segment_and_center_membership():
    r = region("wp:1,2,2")
    geoms = {piece_geometry(p, 2) for p in r.pieces}
    seg = ("segment", ((Fraction(-1, 6), Fraction(-1, 6)), (Fraction(0), Fraction(0))))
    assert seg in geoms
    assert ("point", ((Fraction(0), Fraction(0)),)) in geoms
    assert query_point(r, (Fraction(-1, 12), Fraction(-1, 12))).member
    assert not query_point(r, (Fraction(-1, 4), Fraction(-1, 4))).member


# 5 ------------------------------------------------------------------------


def test_p113_segment_membership():
    r = region("wp:1,1,3")
    geoms = {piece_geometry(p, 2) for p in r.pieces}
    seg = ("segment", ((Fraction(-1), Fraction(2, 3)), (Fraction(0), Fraction(0))))
    assert seg in geoms
    assert query_point(r, (Fraction(-1, 2), Fraction(1, 3))).member


# 6 ------------------------------------------------------------------------


def test_p135_point_battery_matches_oracle():
    r = region("wp:1,3,5")
    battery = [
        ((Fraction(1, 20), Fraction(0)), True),
        ((Fraction(-1, 10), Fraction(1, 100)), True),
        ((Fraction(0), Fraction(-1, 20)), True),
        ((Fraction(1, 2), Fraction(1, 10)), False),
        ((Fraction(3, 20), Fraction(1, 10)), False),
    ]
    for u, want in battery:
        got = query_point(r, u).member
        assert got == oracles.p135_battery(*u) == want, u


# 7 ------------------------------------------------------------------------


def _distinct_ell_points(m, rng, count):
    out = []
    while len(out) < count:
        u = tuple(Fraction(rng.randint(1, 9999), 10000) for _ in range(m.dim))
        if not m.is_interior(u):
            continue
        ells = [m.ell(j, u) for j in range(len(m.facets))]
        if len(set(ells)) == len(ells):
            out.append(u)
    return out


def test_all_labels_two_exact_unit_certificates():
    rng = random.Random(20240814)
    for preset in ("interval:2,2", "square:2,2,2,2"):
        r = region(preset)
        m = r.model
        for u in _distinct_ell_points(m, rng, 200):
            rep = query_point(r, u)
            assert rep.member, (preset, u)
            assert any(
                p.verdict.certificate.exact
                and p.verdict.certificate.residual == 0.0
                and all(z == 1 for z in p.verdict.certificate.y)
                for p in rep.matches
            ), (preset, u)


# 8 ------------------------------------------------------------------------


def _random_model(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return build_model(f"teardrop:{rng.randint(2, 7)}")
    if kind == 1:
        return build_model(f"interval:{rng.randint(1, 4)},{rng.randint(1, 4)}")
    if kind == 2:
        labels = ",".join(str(rng.randint(1, 3)) for _ in range(4))
        return build_model(f"square:{labels}")
    return build_model(f"wp:1,{rng.randint(1, 4)},{rng.randint(1, 5)}")


def test_maslov_index_identity():
    # mu_CW = mu_de + 2 * (sum of degree shifts) on every basic class: a
    # facet class has no orbifold marked point and mu_de = 2, a sector
    # class has one, its own sector's, and mu_de = 0
    rng = random.Random(11)
    checked = 0
    while checked < 1000:
        m = _random_model(rng)
        box = enumerate_box(m)
        for cls in h2_generators(m):
            shifts = [box[cls.index].iota] if cls.kind == "sector" else []
            assert cls.mu_de == 2 * (cls.kind == "facet")
            assert cls.mu_cw == cls.mu_de + 2 * sum(shifts, Fraction(0))
            assert cls.virtual_dim == m.dim - 1
            checked += 1


# 9 ------------------------------------------------------------------------


def test_cone_basis_properties():
    rng = random.Random(13)
    done = 0
    while done < 200:
        n = rng.choice((2, 3))
        gens = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)]
        d = oracles.det_cofactor([list(g) for g in gens])
        if d == 0 or abs(d) > 50:
            continue
        cone = SimplicialCone(tuple(gens))
        trace: list = []
        basis = integral_basis_in_cone(cone, trace)
        assert oracles.is_unimodular([list(b) for b in basis])
        assert all(oracles.in_cone(gens, b) for b in basis)
        assert trace[0] == cone_multiplicity(cone)
        assert all(a > b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == 1
        done += 1


# 10 -----------------------------------------------------------------------


def test_snf_and_saturation_properties():
    rng = random.Random(17)
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rows == cols and oracles.det_cofactor(a) != 0:
            # the Hermite diagonal and the Smith diagonal share one product, |det|
            h, _, _ = column_hermite(a, cols)
            hermite = prod(h[i][i] for i in range(cols))
            smith = prod(oracles.snf_diagonal_via_divisors(a))
            assert hermite == abs(oracles.det_cofactor(a)) == smith

        # adapted basis: saturation property must hold for every prefix span
        full = a + [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
        h, basis, sign = column_hermite(full, cols)
        assert oracles.is_column_hermite(full, h, basis, sign)
        for prefix in (a[:1], a, full):
            r = rank_rational(prefix)
            assert oracles.is_saturated_basis_of_span(prefix, basis[:r])


# 11 -----------------------------------------------------------------------


def test_wp_central_fiber_convergence():
    for weights in ((1, 2), (2, 3), (1, 1, 2)):
        c = wp_central_critical(weights)
        assert c.residual < 1e-10, weights
    assert abs(wp_central_critical((1, 2)).lam - 2**-0.5) < 1e-10


# 12 -----------------------------------------------------------------------


def test_reproduce_suite_deterministic():
    cmd = [sys.executable, "-m", "orbifloer.cli", "reproduce", "--all"]
    first = subprocess.run(cmd, capture_output=True, env=oracles.child_env())
    second = subprocess.run(cmd, capture_output=True, env=oracles.child_env())
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
