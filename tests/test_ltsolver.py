"""Stratification, adapted-coordinate systems, and solvability verdicts."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbifloer.errors import SpanNeverFull
from orbifloer.ltsolver import (
    PALETTE_LIMIT,
    LeadingTermSystem,
    LtsLevel,
    MULTISTARTS,
    Solvability,
    _circuit_candidates,
    _distinct_roots,
    _has_coloop,
    _float_certificate,
    _integer_rows,
    _level_data,
    _linear_certificate,
    _Search,
    _starts,
    _symbol_assignments,
    build_lts,
    lts_signature,
    scenario_stratification,
    solve,
    stratify,
)
from orbifloer.potential import BulkParam, _EqData, _newton
from orbifloer.series import QC, LaurentPoly, render_poly
from orbifloer.stacky import build_model, enumerate_box, sector_ell
from test_potential import RIM, TIE_X, TIE_Y, TIE_Z, seeded_bulk, seeded_fiber


def sector_index(m, nu):
    for i, s in enumerate(enumerate_box(m)):
        if s.nu == nu:
            return i
    raise AssertionError(f"no sector {nu}")


def test_stratify_teardrop_smooth():
    m = build_model("teardrop:3")
    st = stratify(m, (Fraction(0),))
    assert len(st.levels) == 1
    lv = st.levels[0]
    assert lv.energy == 1
    assert set(lv.members) == {("facet", 0), ("facet", 1)}
    assert lv.d == 1 and lv.span_dim == 1
    assert sum(len(lv.members) for lv in st.levels) == 2


def test_stratify_teardrop_bulk():
    m = build_model("teardrop:3")
    u = (Fraction(1, 10),)
    # alpha chosen so the sector lands exactly on ell_2: (1-u) - (1/3+u)
    alpha = (1 - u[0]) - (Fraction(1, 3) + u[0])
    assert alpha == Fraction(7, 15)
    bp = BulkParam.of([((1,), QC.of(1), alpha)])
    st = stratify(m, u, bp)
    assert len(st.levels) == 1
    lv = st.levels[0]
    assert lv.energy == Fraction(9, 10)
    assert set(lv.members) == {("facet", 1), ("sector", 0)}


def test_stratify_p135_case1():
    m = build_model("wp:1,3,5")
    u = (Fraction(1, 20), Fraction(0))
    i1 = sector_index(m, (0, -1))
    i2 = sector_index(m, (-1, -2))
    # land both sectors on ell_0 = 17/20
    bp = BulkParam.of(
        [
            ((0, -1), QC.of(1), Fraction(17, 20) - Fraction(4, 5)),
            ((-1, -2), QC.of(1), Fraction(17, 20) - Fraction(11, 20)),
        ]
    )
    st = stratify(m, u, bp)
    assert len(st.levels) == 1
    lv = st.levels[0]
    assert lv.energy == Fraction(17, 20)
    assert set(lv.members) == {("facet", 0), ("sector", i1), ("sector", i2)}
    assert lv.d == 2


def test_stratify_inert_levels():
    m = build_model("square:2,2,2,2")
    u = (Fraction(1, 5), Fraction(1, 2))
    bp = BulkParam.of(
        [
            ((1, 0), QC.of(1), Fraction(1, 10)),
            ((-1, 0), QC.of(1), Fraction(1, 10)),
        ]
    )
    st = stratify(m, u, bp)
    assert [lv.energy for lv in st.levels] == [
        Fraction(3, 10),
        Fraction(2, 5),
        Fraction(9, 10),
        Fraction(1),
    ]
    assert [lv.d for lv in st.levels] == [1, 0, 0, 1]
    # the two inert levels still belong to the partition below the cut
    assert sum(len(lv.members) for lv in st.levels) == 5
    lts = build_lts(st)
    assert [len(lv.equations) for lv in lts.levels] == [1, 0, 0, 1]


def test_build_lts_teardrop_smooth():
    m = build_model("teardrop:3")
    lts = build_lts(stratify(m, (Fraction(0),)))
    assert render_poly(lts.levels[0].poly) in ("1*y1^-1 + 1*y1^3", "1*y1^3 + 1*y1^-1")
    assert render_poly(lts.levels[0].equations[0]) in ("-1*y1^-2 + 3*y1^2", "3*y1^2 + -1*y1^-2")


def test_build_lts_uses_unimodular_inverse():
    m = build_model("wp:1,3,5")
    st = stratify(m, (Fraction(1, 100), Fraction(1, 100)))
    lts = build_lts(st)
    assert oracles.is_unimodular(lts.basis)
    # every level only uses coordinates unlocked so far
    dim = 0
    for lv in lts.levels:
        dim = max(dim, max(lv.var_indices, default=dim - 1) + 1)
        for e, _ in lv.poly.terms():
            assert all(e[k] == 0 for k in range(dim, lts.n))


def test_scenario_needs_full_span():
    m = build_model("wp:1,3,5")
    with pytest.raises(SpanNeverFull):
        scenario_stratification(m, [[("facet", 0)]], {("facet", 0): QC.of(1)})


def test_solve_pm_one_level():
    m = build_model("teardrop:3")
    i1 = sector_index(m, (1,))
    tags = [("facet", 1), ("sector", i1)]
    st = scenario_stratification(m, [tags], {tags[0]: QC.of(1), tags[1]: QC.of(1)})
    v = solve(build_lts(st))
    assert v.status == Solvability.SolvableCertified
    assert v.certificate.exact
    assert v.certificate.y[0] in (1 + 0j, -1 + 0j)
    assert v.certificate.residual == 0.0


def test_solve_teardrop_smooth_quartic():
    for a in (2, 3, 5):
        m = build_model(f"teardrop:{a}")
        v = solve(build_lts(stratify(m, (Fraction(0),))))
        assert v.status == Solvability.SolvableCertified
        y = v.certificate.y[0]
        assert abs(y ** (a + 1) - 1 / a) < 1e-9
        assert v.certificate.residual < 1e-10


def test_solve_monomial_level_proven():
    m = build_model("wp:1,3,5")
    tags0, tags1 = [("facet", 0)], [("facet", 1)]
    st = scenario_stratification(
        m, [tags0, tags1], {tags0[0]: QC.of(1), tags1[0]: QC.of(1)}
    )
    v = solve(build_lts(st))
    assert v.status == Solvability.UnsolvableProven
    assert "monomial" in v.proof
    assert v.certificate is None


def test_solve_cube_root_level():
    m = build_model("wp:1,2,2")
    i = sector_index(m, (-1, -1))
    tags = [("facet", 1), ("facet", 2), ("sector", i)]
    coeffs = {tags[0]: QC.of(1), tags[1]: QC.of(1), tags[2]: QC.of(1)}
    st = scenario_stratification(m, [tags], coeffs)
    lts = build_lts(st)
    assert len(lts.levels[0].equations) == 2
    v = solve(lts)
    assert v.status == Solvability.SolvableCertified
    assert v.certificate.exact
    assert v.certificate.y == (1 + 0j, 1 + 0j)


def test_solve_symbolic_coefficient_palette():
    m = build_model("teardrop:3")
    i1 = sector_index(m, (1,))
    tags = [("facet", 1), ("sector", i1)]
    st = scenario_stratification(
        m, [tags], {tags[0]: QC.of(1), tags[1]: QC.symbol("c")}
    )
    v = solve(build_lts(st))
    assert v.status == Solvability.SolvableCertified
    assert v.certificate.exact
    assert dict(v.certificate.symbol_values)["c"] == 1 + 0j


def test_solve_allnon_level_exact():
    m = build_model("interval:2,2")
    i = sector_index(m, (1,))
    tags = [("facet", 0), ("sector", i)]
    st = scenario_stratification(
        m, [tags], {tags[0]: QC.of(1), tags[1]: QC.symbol("c")}
    )
    v = solve(build_lts(st))
    assert v.status == Solvability.SolvableCertified
    assert v.certificate.exact
    assert v.certificate.residual == 0.0
    assert v.certificate.y == (1 + 0j,)
    assert dict(v.certificate.symbol_values)["c"] == -2 + 0j


def test_solve_dependent_mixed_level_unknown():
    # sector (0,-1) is parallel to facet 2; the third term's coefficient
    # column is then isolated, and no numeric search can balance it
    m = build_model("wp:1,1,3")
    i = sector_index(m, (0, -1))
    tags = [("facet", 0), ("facet", 2), ("sector", i)]
    st = scenario_stratification(
        m, [tags], {tags[0]: QC.of(1), tags[1]: QC.of(1), tags[2]: QC.symbol("c")}
    )
    v = solve(build_lts(st))
    assert v.status == Solvability.UnknownLikelyUnsolvable
    assert v.certificate is None and v.proof is None


def test_solve_coefficient_relation_needs_free_pass():
    # both sectors of P(1,3,5) under facet 1 in one level: eliminating y
    # leaves the relation c0^2 = 4*c1, which no fixed palette row hits
    m = build_model("wp:1,3,5")
    i1 = sector_index(m, (0, -1))
    i2 = sector_index(m, (-1, -2))
    tags = [("facet", 1), ("sector", i1), ("sector", i2)]
    st = scenario_stratification(
        m,
        [tags],
        {tags[0]: QC.of(1), tags[1]: QC.symbol("c0"), tags[2]: QC.symbol("c1")},
    )
    v = solve(build_lts(st))
    assert v.status == Solvability.SolvableCertified
    c = dict(v.certificate.symbol_values)
    assert abs(c["c0"] ** 2 - 4 * c["c1"]) < 1e-8
    # the linear pass proves it exactly, at a +-1 point
    assert v.certificate.exact and v.certificate.residual == 0.0
    assert all(y in (1 + 0j, -1 + 0j) for y in v.certificate.y)


def _linear_pass(*terms):
    """The one-variable system of f = sum c * y^e, and its _linear_certificate."""
    poly = LaurentPoly(1, terms)
    rows = poly.terms()
    symbols = sorted({name for _, c in rows for name, _ in c.lin})
    level = LtsLevel(None, rows, (0,), 1)
    (eq,) = level.equations
    assert (eq.n, eq.terms()) == (1, oracles.partial_derivative(poly, 0).terms())
    lts = LeadingTermSystem(1, ((1,),), (level,), tuple(symbols), (1,))
    return lts, _linear_certificate(lts)


def _sym(name, q=1):
    return QC(0, ((name, q),))


def test_linear_certificate_moves_free_parameters_off_zero():
    # f = a*y + (b/3)*y^3 + c*y^-1, so df/dy = a + b*y^2 - c*y^-2 and at
    # y = +-1 the one equation is a + b - c = 0.  A sum of three +-1 is
    # odd, so the palette misses it.  With b = k and c = k^2 free,
    # a = k^2 - k is zero at k = 0 and k = 1; k = 2 gives (2, 2, 4).
    lts, cert = _linear_pass(
        ((1,), _sym("a")), ((3,), _sym("b", Fraction(1, 3))), ((-1,), _sym("c"))
    )
    assert cert.symbol_values == (("a", 2 + 0j), ("b", 2 + 0j), ("c", 4 + 0j))
    assert cert.y == (1 + 0j,) and cert.exact and cert.residual == 0.0
    env = {"a": QC(2), "b": QC(2), "c": QC(4)}
    assert oracles.eval_exact(lts.levels[0].equations[0], (QC(1),), env) == 0
    assert solve(lts).certificate == cert


def test_linear_certificate_needs_nonzero_symbols():
    # df/dy = a - 2 + b*y^-2: at y = 1, a = 2 - b; b = k is zero at k = 0
    _, cert = _linear_pass(((1,), QC(-2, (("a", 1),))), ((-1,), _sym("b", -1)))
    assert cert.symbol_values == (("a", 1 + 0j), ("b", 1 + 0j))
    # df/dy = a + a*y: y = 1 forces a = 0, and y = -1 leaves a free
    _, cert = _linear_pass(((1,), _sym("a")), ((2,), _sym("a", Fraction(1, 2))))
    assert cert.y == (-1 + 0j,) and cert.symbol_values == (("a", 1 + 0j),)
    # df/dy = a: every sign pattern forces a = 0, whatever b is
    assert _linear_pass(((1,), _sym("a")), ((0,), _sym("b")))[1] is None


def test_linear_certificate_checks_its_solved_point(monkeypatch):
    # a wp:1,2,2 leaf certified at y = (1, 1), c0 = 1: with every pivot
    # solved one off, no sign pattern passes the check on its rows
    from orbifloer import ltsolver, region

    m = build_model("wp:1,2,2")
    level = (("facet", 1), ("facet", 2), ("sector", 0))
    lts = region.scenario_lts(m, region.Scenario(0, (level,), (), ()))
    cert = _linear_certificate(lts)
    assert cert.exact and cert.y == (1, 1) and cert.symbol_values == (("c0", 1),)
    solved = ltsolver.back_substitute

    def one_off(reduced, pivots, values):
        x = solved(reduced, pivots, values)
        return [v + 1 if j in pivots else v for j, v in enumerate(x)]

    monkeypatch.setattr(ltsolver, "back_substitute", one_off)
    assert _linear_certificate(lts) is None


def test_float_certificate_rejects_a_root_drifted_toward_zero():
    # the system of one fiber-probe lte request: its numeric search once
    # ended at y = (1, -6.8e-8 + 1.7e-8i), where the scaled residual is
    # below 1e-10 only because every term of y_2 * eq_2 is that small
    m = build_model("square:2,2,2,2")
    u = (Fraction(9, 20), Fraction(9, 20))
    box = enumerate_box(m)
    bulk = ((1, -2, Fraction(9, 20)), (5, -2, 1), (6, 2, Fraction(7, 12)), (7, -2, Fraction(1, 12)))
    lts = build_lts(stratify(m, u, BulkParam.of((box[i].nu, QC(c), lam) for i, c, lam in bulk)))
    y = (1 + 0j, -6.761678465143594e-08 + 1.720021847948296e-08j)
    scaled = max(
        abs(y[i] * eq.eval_complex(y, 1.0, {}))
        for lv in lts.levels
        for i, eq in zip(lv.var_indices, lv.equations)
    )
    assert scaled < 1e-10
    assert _float_certificate(lts, y, {}) is None
    v = solve(lts)
    assert v.status == Solvability.UnknownLikelyUnsolvable and v.certificate is None


def test_solve_two_level_ladder():
    # teardrop with the sector pinned under facet 1, facet 0 above at level 2:
    # infeasible geometrically for the region machinery, but the algebra of
    # sequential solving is well-defined and solvable
    m = build_model("wp:1,1,3")
    i = sector_index(m, (0, -1))
    lev1 = [("facet", 2), ("sector", i)]
    lev2 = [("facet", 0), ("facet", 1)]
    coeffs = {
        lev1[0]: QC.of(1),
        lev1[1]: QC.symbol("c"),
        lev2[0]: QC.of(1),
        lev2[1]: QC.of(1),
    }
    st = scenario_stratification(m, [lev1, lev2], coeffs)
    lts = build_lts(st)
    assert [len(lv.equations) for lv in lts.levels] == [1, 1]
    v = solve(lts)
    assert v.status == Solvability.SolvableCertified
    assert v.certificate.residual < 1e-10


def test_certificate_transfers_to_original_coordinates():
    # the unimodular rewrite is a bijection on (C*)^n: pulling the adapted
    # certificate back must solve the original-coordinate level systems
    m = build_model("wp:1,1,3")
    i = sector_index(m, (0, -1))
    lev1 = [("facet", 2), ("sector", i)]
    lev2 = [("facet", 0), ("facet", 1)]
    coeffs = {
        lev1[0]: QC.of(1),
        lev1[1]: QC.symbol("c"),
        lev2[0]: QC.of(1),
        lev2[1]: QC.of(1),
    }
    st = scenario_stratification(m, [lev1, lev2], coeffs)
    lts = build_lts(st)
    assert tuple(map(abs, lts.basis[0])) != (1, 0)  # basis actually reorders
    v = solve(lts)
    assert v.status == Solvability.SolvableCertified

    minv = oracles.integer_inverse(lts.basis)
    z = v.certificate.y
    yorig = tuple(
        complex(z[0]) ** minv[i][0] * complex(z[1]) ** minv[i][1] for i in range(2)
    )
    env = dict(v.certificate.symbol_values)
    for lv, orig in zip(lts.levels, st.levels):
        poly = LaurentPoly(2, tuple(zip(orig.directions, orig.coeffs)))
        assert abs(
            poly.eval_complex(yorig, 1.0, env) - lv.poly.eval_complex(z, 1.0, env)
        ) < 1e-9
        # z_j d/dz_j = sum_i M_ij * y_i d/dy_i: own-direction gradients vanish
        g = [yorig[k] * oracles.partial_derivative(poly, k).eval_complex(yorig, 1.0, env) for k in range(2)]
        for j in lv.var_indices:
            assert abs(sum(minv[i][j] * g[i] for i in range(2))) < 1e-8


def test_signature_stable_under_symbol_names():
    m = build_model("teardrop:3")
    i1 = sector_index(m, (1,))
    tags = [("facet", 1), ("sector", i1)]

    def make(symbol):
        st = scenario_stratification(
            m, [tags], {tags[0]: QC.of(1), tags[1]: QC.symbol(symbol)}
        )
        return lts_signature(build_lts(st))[0]

    assert make("c") == make("zz")
    other = build_lts(stratify(m, (Fraction(0),)))
    assert make("c") != lts_signature(other)[0]

    # both sectors on the facet's level: a repeated symbol is another system
    a, b = QC.symbol("a"), QC.symbol("b")
    assert teardrop_signature(a, b) == teardrop_signature(b, a) != teardrop_signature(a, a)


def teardrop_signature(*coeffs):
    """lts_signature key of the one-level teardrop:3 system: facet 1 and sectors (1,), (2,)."""
    m = build_model("teardrop:3")
    tags = [("facet", 1), ("sector", sector_index(m, (1,))), ("sector", sector_index(m, (2,)))]
    st = scenario_stratification(m, [tags], dict(zip(tags, (QC.of(1), *coeffs))))
    return lts_signature(build_lts(st))[0]


def test_signature_keys_stay_injective():
    # each rational enters the key as its numerator and denominator: swapping
    # them, flipping a sign, or putting a symbol where a constant was gives
    # another key
    a = QC.symbol("a")
    keys = [
        teardrop_signature(QC(Fraction(1, 2)), a),
        teardrop_signature(QC(2), a),
        teardrop_signature(QC(1), a),
        teardrop_signature(QC(-1), a),
        teardrop_signature(QC.symbol("b"), a),
        teardrop_signature(QC(Fraction(1, 2), (("b", 2),)), a),
        teardrop_signature(QC(2, (("b", Fraction(1, 2)),)), a),
        teardrop_signature(a, QC(1)),
    ]
    assert len(set(keys)) == len(keys)


def test_mixed_coefficient_sums_and_constant_keys():
    # a constant plus a symbolic coefficient is one QC from either side, an
    # integer multiple scales every part, and a sum whose symbols cancel is
    # a constant that keys its system as the equal constant does
    c = QC(1, (("a", 3), ("b", Fraction(-1, 3))))
    q = QC(Fraction(1, 2))
    want = QC(Fraction(3, 2), (("a", 3), ("b", Fraction(-1, 3))))
    assert q + c == want and c + q == want
    assert c * -2 == QC(-2, (("a", -6), ("b", Fraction(2, 3))))
    assert (c * 0).is_zero()
    a = QC.symbol("a")
    flat = c + QC(0, (("a", -3), ("b", Fraction(1, 3))))
    assert not flat.lin and teardrop_signature(flat, a) == teardrop_signature(QC(1), a)


def test_one_coefficient_class():
    # a constant is the QC with no symbol part: it equals and hashes as its
    # Fraction, and written with an empty, zero or cancelling symbol part it
    # is the same coefficient, with the same signature key
    half, a = QC(Fraction(1, 2)), QC.symbol("a")
    assert QC(1) == 1 and hash(QC(1)) == hash(1)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    cancel = QC(0, (("b", 1), ("b", -1)))
    for same in (QC(Fraction(1, 2), ()), QC(Fraction(1, 2), (("b", 0),)), half + cancel):
        assert same == half and hash(same) == hash(half) and not same.lin
        assert teardrop_signature(same, a) == teardrop_signature(half, a)
    x, y = QC(2, (("a", 1), ("b", Fraction(1, 3)))), QC(2, (("b", Fraction(1, 3)), ("a", 1)))
    assert x == y and hash(x) == hash(y) and x != QC(2)
    with pytest.raises(TypeError):
        QC.of(1j)
    with pytest.raises(KeyError):
        a.to_complex({"b": QC(1)})
    with pytest.raises(KeyError):
        a.to_complex()


@pytest.mark.parametrize("preset", ["teardrop:5", "wp:1,3,5", "square:2,2,2,2", "wp:1,2,3,5"])
def test_build_lts_matches_rewrite_oracle_at_points(preset):
    # seeded interior points, half the sectors switched on and mostly tied
    # to the lowest facet energy, with constant and symbolic coefficients
    m = build_model(preset)
    box = enumerate_box(m)
    rng = random.Random(f"rows/{preset}")
    palette = [QC(1), QC(-1), QC(Fraction(1, 2)), QC.symbol("b"), QC(2, (("a", 3),))]
    pairs = []
    for _ in range(16):
        w = [rng.randint(1, 9) for _ in m.vertices]
        u = tuple(
            sum(wi * Fraction(v[k]) for wi, v in zip(w, m.vertices)) / sum(w) for k in range(m.dim)
        )
        low = min(m.ell(j, u) for j in range(len(m.facets)))
        entries = []
        for i in rng.sample(range(len(box)), (len(box) + 1) // 2):
            lam = low - sector_ell(m, box[i], u)
            if lam <= 0 or rng.random() < 0.2:
                lam = Fraction(rng.randint(1, 12), 12)
            entries.append((box[i].nu, rng.choice(palette), lam))
        strat = stratify(m, u, BulkParam.of(entries))
        lts, (want, want_terms) = build_lts(strat), oracles.lts_by_rewrite(strat)
        assert lts == want and oracles.lts_terms(lts) == want_terms, u
        sig, symbols = oracles.signature_by_terms(want)
        key, names = lts_signature(lts)
        assert names == symbols
        pairs.append((key, sig))
    assert oracles.one_to_one(pairs)


def test_solve_deterministic():
    m = build_model("wp:1,2,2")
    lts = build_lts(stratify(m, (Fraction(-1, 12), Fraction(-1, 12))))
    a = solve(lts, seed=5)
    b = solve(lts, seed=5)
    assert a == b


def rows_vanish(p, env, y):
    # the compiled rows summed at a rational y as the linear pass sums them: a
    # row enters with the sign of the parity of its mask at the negative
    # coordinates of y, times |p_k|^(m_k + e_k) q_k^(m_k - e_k)
    rows = _integer_rows(p.terms())
    bits = sum(1 << k for k, v in enumerate(y) if v < 0)
    m = [max((abs(e[k]) for _, e, _, _ in rows), default=0) for k in range(p.n)]
    total = 0
    for mask, e, const, lin in rows:
        w = -1 if (mask & bits).bit_count() & 1 else 1
        for v, mk, x in zip(y, m, e):
            w *= abs(v.numerator) ** (mk + x) * v.denominator ** (mk - x)
        total += (const + sum(q * env[name].const for name, q in lin)) * w
    return total == 0


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
rational = st.builds(QC, small_fractions)
symbolic = st.builds(
    QC,
    small_fractions,
    st.lists(
        st.tuples(st.sampled_from(["c0", "c1"]), small_fractions), max_size=2, unique_by=lambda t: t[0]
    ),
)
# symbol values: 1, -1 and minus the facet labels; a half as well
palette = st.sampled_from([QC(1), QC(-1), QC(-2), QC(-3), QC(-5), QC(Fraction(1, 2))])


@st.composite
def t_free_cases(draw):
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    terms = draw(
        st.lists(
            st.tuples(exps, st.one_of(rational, symbolic)), max_size=5, unique_by=lambda t: t[0]
        )
    )
    p = LaurentPoly(n, terms)
    env = {"c0": draw(palette), "c1": draw(palette)}
    # grid values: +-1, and +-l, +-1/l for labels 2 and 3
    grid = [Fraction(v) for v in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3), 3)]
    y = draw(st.tuples(*[st.sampled_from(grid)] * n))
    return p, env, y


@given(t_free_cases())
@settings(max_examples=200, deadline=None)
def test_parity_table_agrees_with_eval_exact(case):
    p, env, y = case
    yq = tuple(QC(v) for v in y)
    value = oracles.eval_exact(p, yq, env)
    assert rows_vanish(p, env, y) == (value == 0)
    # shifted to vanish at y, so both outcomes are exercised: exponent 4
    # lies outside the drawn range
    q = LaurentPoly(p.n, p.terms() + (((4,) + (0,) * (p.n - 1), QC(-value / y[0] ** 4)),))
    assert oracles.eval_exact(q, yq, env) == 0
    assert rows_vanish(q, env, y)


def test_solve_rational_bulk_coefficients_exact():
    # teardrop:5 at u = 0 with sectors (1,) and (2,) tied to the facet
    # energy: the level equation 5y^4 - y^-2 - 3/2 - (5/2)y vanishes at
    # y = 1, which only an exact test with the denominators cleared sees
    # (truncated or floored coefficients miss it)
    m = build_model("teardrop:5")
    u = (Fraction(0),)
    box = enumerate_box(m)
    entries = []
    for nu, c in (((1,), Fraction(-3, 2)), ((2,), Fraction(-5, 4))):
        s = box[sector_index(m, nu)]
        entries.append((nu, QC(c), 1 - sector_ell(m, s, u)))
    lts = build_lts(stratify(m, u, BulkParam.of(entries)))
    (eq,) = lts.levels[0].equations
    assert render_poly(eq) == "-1*y1^-2 + -3/2 + -5/2*y1 + 5*y1^4"
    v = solve(lts)
    assert v.status == Solvability.SolvableCertified
    assert v.certificate.exact and v.certificate.residual == 0.0
    assert v.certificate.y == (1 + 0j,)


def _distinct_roots_reference(ys, res, tol=1e-12):
    # sort every end point, then drop the unconverged ones
    found = []
    key = lambda p: tuple((round(c.real, 9), round(c.imag, 9)) for c in p[0])  # noqa: E731
    for y, r in sorted(zip(ys, res), key=key):
        if r > tol:
            continue
        if all(max(abs(a - b) for a, b in zip(y, f)) > 1e-6 for f in found):
            found.append(tuple(complex(c) for c in y))
    return found


def test_distinct_roots_filter_keeps_sorted_order():
    # repeated and nearly repeated points, residuals on both sides of the
    # tolerance and NaN residuals: filtering before the stable sort must
    # keep exactly the reference's roots in the reference's order
    rng = np.random.default_rng(5)
    for _ in range(50):
        base = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        jitter = rng.choice([1e-8, 1e-11], size=(64, 1)) * rng.normal(size=(64, 2))
        ys = base[rng.integers(0, 6, size=64)] + jitter
        res = 10.0 ** rng.uniform(-16, -8, size=64)
        res[rng.integers(0, 64, size=4)] = np.nan
        assert _distinct_roots(ys, res) == _distinct_roots_reference(ys, res)


def _same_points(got, want):
    # tuples of complex, compared bit for bit with NaN equal to NaN
    return len(got) == len(want) and all(
        np.array_equal(np.array(a), np.array(b), equal_nan=True) for a, b in zip(got, want)
    )


def test_distinct_roots_match_the_loop_on_seeded_multistarts():
    # random square Laurent systems in 2 and 3 unknowns, each run from
    # seeded starts twice over, so that every root comes back repeated
    rng = np.random.default_rng(23)
    kept = repeats = 0
    for trial in range(40):
        d = 2 + trial % 2
        exps = [rng.integers(-3, 4, size=(int(rng.integers(2, 6)), d)).astype(float) for _ in range(d)]
        coeffs = [rng.normal(size=len(e)) + 1j * rng.normal(size=len(e)) for e in exps]
        starts = _starts((trial, 0), 32, d)
        ys, res, _ = _newton(_EqData(exps, coeffs), np.concatenate([starts, starts]))
        got = _distinct_roots(ys, res)
        assert _same_points(got, oracles.distinct_roots_by_loop(ys, res))
        kept += len(got)
        repeats += int((~(res > 1e-12)).sum()) - len(got)
    assert kept > 0 and repeats > 0


# RIM and the TIE_ values are the edge coordinates of the critical keep tests
DISTINCT_EDGES = {
    "nan-residual": (
        [(1.0, 2.0), (0.5, 0.5), (1.0 + 1e-9, 2.0), (np.nan, 1.0), (3.0, np.nan), (3.0, 7.0), (3.1, 7.0)],
        [1e-14, np.nan, 1e-13, np.nan, 1e-15, np.nan, 1e-14],
    ),
    "at-the-radius": ([(1e-3 + 1e-3j, 1.0), (RIM, 1.0), (1e-3 + 1e-6 + 1e-3j, 1.0)], [0.0, 0.0, 0.0]),
    "rounding-ties": ([(TIE_Y, 0.1), (TIE_X, 0.9), (TIE_Z, 0.5), (TIE_Y, 0.3)], [0.0, 0.0, 0.0, 0.0]),
    "none-converged": ([(1.0, 1.0), (2.0, 2.0)], [1e-3, np.inf]),
}


@pytest.mark.parametrize("edge", DISTINCT_EDGES)
def test_distinct_roots_match_the_loop_on_edge_cases(edge):
    points, residuals = DISTINCT_EDGES[edge]
    ys = np.array(points, dtype=complex)
    res = np.array(residuals)
    assert _same_points(_distinct_roots(ys, res), oracles.distinct_roots_by_loop(ys, res))
    empty = np.empty((0, 2), dtype=complex)
    assert _distinct_roots(empty, np.empty(0)) == [] == oracles.distinct_roots_by_loop(empty, [])


# The stacked kernel keeps the bits of the per-equation loop.  Its one
# np.matmul per equation, of the columns against c, c * e_1, ... stacked as
# a (d + 1, T, 1) array, runs the same gemv per operand as d + 1 lone
# products (0 of 20,248 random gemv checks differed).  Four rewrites that
# look equivalent were measured to change bits, so they stay out: one gemm
# over a (T, d + 1) matrix of those columns (186 of 193 recorded calls
# changed), zero-padding every equation's operands to one length so that
# one matmul serves all equations (1,659 of 6,046 random equations
# changed), chained * in place of np.prod over the coordinate powers (201
# changed), and evaluating only the rows still working (244 of 7,334
# row-subset gemv checks changed: BLAS results depend on the rows passed
# with them).
@pytest.mark.parametrize("d", [1, 2, 3])
def test_f_and_jlog_is_bit_identical_to_the_per_equation_loop(d):
    rng = np.random.default_rng(d)
    for trial in range(60):
        # unequal term counts, so every equation's columns sit at another offset
        exps = [rng.integers(-4, 5, size=(int(rng.integers(1, 12)), d)).astype(float) for _ in range(d)]
        coeffs = [rng.normal(size=len(e)) + 1j * rng.normal(size=len(e)) for e in exps]
        ys = _starts((d, trial), int(rng.choice([1, 5, 20, 64, 128])), d)
        fv, jm = _EqData(exps, coeffs).f_and_jlog(ys)
        want_fv, want_jm = oracles.f_and_jlog_by_equation(exps, coeffs, ys)
        assert np.array_equal(fv, want_fv) and np.array_equal(jm, want_jm)
        assert np.array_equal(_EqData(exps, coeffs).f_and_jlog(ys, jac=False)[0], want_fv)


def test_starts_are_seeded_by_their_key_in_the_modulus_window():
    # one key repeats its points; keys whose digits run together do not
    # collide; every modulus lies in [0.3, 1.8]
    for width in (1, 2, 3):
        starts = _starts((1, 23), 64, width)
        assert starts.shape == (64, width)
        assert np.array_equal(starts, _starts((1, 23), 64, width))
        assert not np.array_equal(starts, _starts((12, 3), 64, width))
        moduli = np.abs(starts)
        assert ((0.3 <= moduli) & (moduli <= 1.8)).all()


def test_newton_square_step_survives_a_singular_jacobian():
    # y0*y1 = 2 and y0 = y1: the log-Jacobian rows (y0*y1, y0*y1) and
    # (y0, -y1) are dependent exactly where y0 = -y1
    eqs = (
        LaurentPoly(2, [((1, 1), QC(1)), ((0, 0), QC(-2))]).terms(),
        LaurentPoly(2, [((1, 0), QC(1)), ((0, 1), QC(-1))]).terms(),
    )
    data = _level_data(eqs, (0, 1), [None, None], {})
    starts = np.array([[1.0, -1.0], [1.3, 0.7]], dtype=complex)
    zs, res, _ = _newton(data, starts)
    assert zs[0].tolist() == [1.0, -1.0]
    assert res[1] < 1e-12
    assert abs(zs[1, 0] - 2**0.5) < 1e-9 and abs(zs[1, 1] - 2**0.5) < 1e-9


def _two_symbol_level():
    # s0*y0*y1^2 - 1 and s1*y0^2*y1 + 2: with s0 = s1 = 0 both equations are
    # constants and the log-Jacobian is zero at every start
    s0, s1 = QC.symbol("s0"), QC.symbol("s1")
    return (
        LaurentPoly(2, [((1, 2), s0), ((0, 0), QC(-1))]).terms(),
        LaurentPoly(2, [((2, 1), s1), ((0, 0), QC(2))]).terms(),
    )


ENVS = ({"s0": 1.0, "s1": 1.0}, {"s0": 0j, "s1": 0j}, {"s0": -1 + 0.5j, "s1": 2.0})


@pytest.mark.parametrize("env", ENVS)
def test_newton_residual_is_the_scaled_value_under_each_assignment(env):
    starts = _starts((0, 0), 64, 2)
    data = _level_data(_two_symbol_level(), (0, 1), [None, None], env)
    zs, res, values = _newton(data, starts)
    # the values without the Jacobian are the values with it, Newton
    # returns them, and the residual is max |f| * |y|
    fv, _ = data.f_and_jlog(zs)
    assert np.array_equal(data.f_and_jlog(zs, jac=False)[0], fv)
    assert np.array_equal(values, fv)
    assert np.array_equal((np.abs(fv) * np.abs(zs)).max(axis=1), res)
    if env["s0"]:
        assert (res < 1e-12).any()
    else:
        # the constant assignment never moves
        assert np.array_equal(zs, starts)


class _Fixed(_EqData):
    """Newton data with fixed values and one given log-Jacobian per evaluation."""

    def __init__(self, fv, jms):
        self.fv = fv
        self.jms = list(jms)
        self.calls = 0

    def f_and_jlog(self, zs, jac=True):
        jm = self.jms[min(self.calls, len(self.jms) - 1)]
        self.calls += 1
        return self.fv, jm if jac else None


def test_newton_mixed_singular_batch_solves_the_regular_rows():
    rng = np.random.default_rng(3)
    n = 12
    fv = 0.05 * (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
    regular = np.eye(2) + 0.3 * (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    mixed = regular.copy()
    singular = np.array([1, 4, 5, 11])
    mixed[singular] = [[1.0, 2.0], [2.0, 4.0]]
    mixed[singular[0]] = 0
    z0 = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n, 2)))
    # second iteration: every Jacobian is regular, so a row moves only if alive
    zs, _, _ = _newton(_Fixed(fv, [mixed, regular]), z0, iters=2)
    for k in range(n):
        if k in singular:
            assert np.array_equal(zs[k], z0[k])
        else:
            step = np.exp(np.linalg.solve(regular[k], -fv[k]))
            assert np.array_equal(zs[k], z0[k] * step * step)


def test_newton_all_singular_batch_stops_after_one_iteration():
    data = _level_data(_two_symbol_level(), (0, 1), [None, None], ENVS[1])
    calls = []
    evaluate = data.f_and_jlog
    data.f_and_jlog = lambda zs, jac=True: calls.append(jac) or evaluate(zs, jac)
    starts = _starts((0, 0), 128, 2)
    zs, res, _ = _newton(data, starts)
    assert np.array_equal(zs, starts)
    # one Newton iteration, then the evaluation that finds no start working
    # is returned as it is
    assert calls == [True, True]
    assert np.array_equal(res, np.maximum(np.abs(starts[:, 0]), 2 * np.abs(starts[:, 1])))


# every unknown system has a coloop level, so none of them is solvable;
# the scale-free float test turns float "roots" at a coloop into unknowns
@pytest.mark.parametrize("preset, systems, unknown", [("wp:1,3,5", 44, 9), ("wp:1,3,7", 122, 12)])
def test_solve_leaves_only_coloop_systems_unknown_on_region(preset, systems, unknown):
    from orbifloer import region

    # the distinct systems of the feasible candidates without a one-member
    # level, coloop levels included: those are the ones that end unknown
    m = build_model(preset)
    seen = {}
    for s in region.enumerate_scenarios(m):
        if any(len(tags) == 1 for tags in s.levels) or region.scenario_region(m, s) is None:
            continue
        lts = region.scenario_lts(m, s)
        sig = lts_signature(lts)[0]
        if sig not in seen:
            seen[sig] = (lts, solve(lts))
    statuses = [v.status for _, v in seen.values()]
    assert len(seen) == systems and statuses.count(Solvability.UnknownLikelyUnsolvable) == unknown
    for lts, verdict in seen.values():
        if verdict.status is Solvability.UnknownLikelyUnsolvable:
            assert oracles.coloop_refutes(lts)


COLOOP_SYSTEMS = {
    # y + 1: the lone exponent 1 leaves the zero span, and d/dy = 1
    "one-variable": (1, ((((0,), QC(1)), ((1,), QC(1))), (0,))),
    # y1 + y1^2 + c y2: (0, 1) leaves the span of (1, 0) and (2, 0), and
    # d/dy2 = c is never zero
    "two-variable": (
        2,
        ((((1, 0), QC(1)), ((2, 0), QC(1)), ((0, 1), QC.symbol("c"))), (0, 1)),
    ),
    # y1 + 1/y1 below, which vanishes in d/dy1 at y1 = +-1, then 1 + 3 y2:
    # the coloop sits in the upper level
    "upper-level": (
        2,
        ((((-1, 0), QC(1)), ((1, 0), QC(1))), (0,)),
        ((((0, 0), QC(1)), ((0, 1), QC(3))), (1,)),
    ),
}


def _system(n, *levels):
    """A leading term system of hand-made (rows, own coordinates) levels, basis the identity."""
    lts_levels = tuple(LtsLevel(None, rows, own, n) for rows, own in levels)
    symbols = {name for lv in lts_levels for _, c in lv.rows for name, _ in c.lin}
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return LeadingTermSystem(n, basis, lts_levels, tuple(sorted(symbols)), (1,) * (n + 1))


class _NoSearch:
    def __init__(self, *args):
        raise AssertionError("a coloop system ran the numeric palette")


@pytest.mark.parametrize("name", COLOOP_SYSTEMS)
def test_solve_short_circuits_a_coloop_system(monkeypatch, name):
    lts = _system(*COLOOP_SYSTEMS[name])
    assert _has_coloop(lts.levels[-1]) and oracles.coloop_refutes(lts)
    monkeypatch.setattr("orbifloer.ltsolver._Search", _NoSearch)
    verdict = solve(lts)
    assert verdict.status is Solvability.UnknownLikelyUnsolvable and verdict.proof is None


def test_coloop_needs_a_lone_row():
    # y1 + 1/y1 below, then y2 + y1 y2: level 2's one own exponent holds two
    # rows, whose summed coefficient 1 + y1 vanishes at the root y1 = -1
    lts = _system(2, ((((-1, 0), QC(1)), ((1, 0), QC(1))), (0,)), ((((0, 1), QC(1)), ((1, 1), QC(1))), (1,)))
    assert not any(_has_coloop(lv) for lv in lts.levels)
    assert not oracles.coloop_refutes(lts)
    assert solve(lts).status is Solvability.SolvableCertified


def test_has_coloop_matches_the_oracle_at_seeded_fibers():
    # lte systems of seeded fiber points, most moved to a facet tie and all
    # with seeded bulk data; a level of one row is the monomial proof's case
    seen = {}
    for preset in ("teardrop:5", "wp:1,3,5", "wp:1,3,7", "square:2,2,2,2", "wp:1,2,3,5"):
        m = build_model(preset)
        rng = random.Random(f"coloop/{preset}")
        for k in range(12):
            u = seeded_fiber(m, rng, tie=k % 3 != 0)
            lts = build_lts(stratify(m, u, seeded_bulk(m, u, rng)))
            hit = any(_has_coloop(lv) for lv in lts.levels)
            assert hit == oracles.coloop_refutes(lts), (preset, u)
            monomial = any(len(lv.rows) == 1 for lv in lts.levels)
            seen[hit, monomial] = seen.get((hit, monomial), 0) + 1
    assert seen.get((True, False)) and seen.get((False, False)), seen


# coefficients that are never zero (constants, bare symbols) and symbolic
# sums that can vanish; none is zero, since the oracle reads lv.poly
never_zero = st.one_of(
    st.builds(QC, st.sampled_from([1, -1, 2, Fraction(1, 2)])),
    st.sampled_from(["c0", "c1"]).map(QC.symbol),
)
can_vanish = st.builds(
    QC,
    st.sampled_from([0, 1, -2]),
    st.lists(
        st.tuples(st.sampled_from(["c0", "c1"]), st.sampled_from([1, -1])),
        min_size=1, max_size=2, unique_by=lambda t: t[0],
    ),
).filter(lambda c: not (c.const == 0 and len(c.lin) == 1))


@st.composite
def coloop_levels(draw):
    # one level with 1-3 own variables after 0-2 lower ones; own exponents
    # from a small set, so that rows share them or have them zero
    lower, own = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-1, 1)] * lower, *[st.sampled_from([0, 1, -1, 2])] * own)
    rows = draw(
        st.lists(
            st.tuples(exps, st.one_of(never_zero, can_vanish)),
            min_size=1, max_size=5, unique_by=lambda t: t[0],
        )
    )
    rows = tuple(sorted(rows, key=lambda t: t[0]))
    return _system(lower + own, (rows, tuple(range(lower, lower + own))))


@given(coloop_levels())
@settings(max_examples=300, deadline=None)
def test_has_coloop_matches_the_oracle_on_random_levels(lts):
    assert _has_coloop(lts.levels[0]) == oracles.coloop_refutes(lts)


def test_has_coloop_finds_none_on_region_leaves(monkeypatch):
    # the region walk prunes coloop leaves before scenario_lts, so solve
    # is never short-circuited in a region
    from orbifloer import region

    systems = []
    build = region.scenario_lts
    monkeypatch.setattr(region, "scenario_lts", lambda m, s: systems.append(build(m, s)) or systems[-1])
    region.nondisplaceable_region(build_model("wp:1,3,7"))
    assert systems
    assert not any(_has_coloop(lv) for lts in systems for lv in lts.levels)


def test_palette_certifies_at_its_first_certifying_assignment():
    # a system no linear pass certifies: level 1, 3*y1^2 - 6 = 0, has only
    # the roots +-sqrt(2), and level 2, (1 - c) - (1 + c)*y2^-2 = 0, is a
    # monomial at c = 1 and at c = -1, so it has a torus root only off them.
    # The palette takes only the special values 1, -1 and minus each label,
    # at most PALETTE_LIMIT times, in order, and c = 1 and c = -1 fail
    # before c = -2 certifies, at y2^2 = -1/3
    lts = replace(
        _system(
            2,
            ((((1, 0), QC(-6)), ((3, 0), QC(1))), (0,)),
            ((((0, -1), QC(1, (("c", 1),))), ((0, 1), QC(1, (("c", -1),)))), (1,)),
        ),
        labels=(2, 2, 1, 1),
    )
    assert lts.symbols == ("c",)
    assert _linear_certificate(lts) is None
    envs = _symbol_assignments(lts)
    special = [QC(1), QC(-1)] + [QC(-c) for c in lts.labels]
    assert len(envs) <= PALETTE_LIMIT
    assert all(v in special for env in envs for v in env.values())
    assert [_Search(lts, env, 0).run() for env in envs[:2]] == [None, None]
    cert = solve(lts).certificate
    assert cert.symbol_values == (("c", -2 + 0j),)
    assert not cert.exact and cert.residual < 1e-10


def _exact_value(z: complex) -> QC:
    # exact certificate entries are floats of small real rationals
    assert z.imag == 0
    return QC(Fraction(z.real).limit_denominator(10**6))


@pytest.mark.parametrize(
    "preset, systems, hits",
    [("teardrop:3", 12, 5), ("wp:1,3,5", 329, 10), ("wp:1,3,7", 1367, 21), ("square:2,2,1,1", 74, 15)],
)
def test_linear_pass_certifies_every_palette_certificate(preset, systems, hits):
    # the exact palette solve once ran, rebuilt from eval_exact: every
    # system of a feasible scenario that it certifies gets an exact
    # certificate from solve, and eval_exact confirms it
    seen = _feasible_systems(preset)
    certified = [lts for lts in seen if oracles.palette_certificate(lts) is not None]
    assert (len(seen), len(certified)) == (systems, hits)
    for lts in certified:
        cert = solve(lts).certificate
        assert cert.exact and cert.residual == 0.0
        y = tuple(_exact_value(z) for z in cert.y)
        env = {name: _exact_value(z) for name, z in cert.symbol_values}
        for lv in lts.levels:
            for eq in lv.equations:
                assert oracles.eval_exact(eq, y, env) == 0


def _region_systems(monkeypatch, preset):
    """The distinct systems a region solves, in solve order."""
    from orbifloer import region

    systems = []
    real = region.solve
    monkeypatch.setattr(region, "solve", lambda lts, **kw: systems.append(lts) or real(lts, **kw))
    region.nondisplaceable_region(build_model(preset))
    return systems


def _unit_certificate(lts):
    # with every label 1 the grid is {+-1}, so this is the pass at +-1 alone
    return _linear_certificate(replace(lts, labels=(1,) * len(lts.labels)))


@pytest.mark.parametrize("preset, systems, grid", [("square:2,2,2,2", 183, 32), ("interval:2,2", 7, 2)])
def test_grid_certificates_are_exact(monkeypatch, preset, systems, grid):
    # every system the +-1 points leave uncertified gets a certificate at a
    # grid point off {+-1}^n, and eval_exact makes every level equation
    # zero at that point and the solved symbols
    solved = _region_systems(monkeypatch, preset)
    left = [lts for lts in solved if _unit_certificate(lts) is None]
    assert (len(solved), len(left)) == (systems, grid)
    for lts in left:
        cert = _linear_certificate(lts)
        assert cert is not None and cert.exact and cert.residual == 0.0
        y = tuple(_exact_value(z) for z in cert.y)
        assert any(z not in (QC(1), QC(-1)) for z in y)
        env = {name: _exact_value(z) for name, z in cert.symbol_values}
        for lv in lts.levels:
            for eq in lv.equations:
                assert oracles.eval_exact(eq, y, env) == 0


def _feasible_systems(preset):
    """One system per signature among the feasible scenarios of a preset."""
    from orbifloer import region

    m = build_model(preset)
    seen = {}
    for s in region.enumerate_scenarios(m):
        if region.scenario_region(m, s) is not None:
            lts = region.scenario_lts(m, s)
            seen.setdefault(lts_signature(lts)[0], lts)
    return list(seen.values())


@pytest.mark.parametrize("preset, units", [("teardrop:3", 9), ("wp:1,3,5", 29), ("square:2,2,1,1", 16)])
def test_grid_keeps_every_unit_certificate(preset, units):
    # the +-1 points come first, so a system they certify keeps its certificate
    certs = [(lts, _unit_certificate(lts)) for lts in _feasible_systems(preset)]
    certs = [(lts, cert) for lts, cert in certs if cert is not None]
    assert len(certs) == units
    for lts, cert in certs:
        assert _linear_certificate(lts) == cert


def _circuit_visits(monkeypatch, preset):
    """(level, fixed values, env, starts key) of each circuit level the palette meets in a region."""
    from orbifloer import region

    visits = []
    candidates = _Search._candidates

    def record(self, li, vals):
        lv = self.lts.levels[li]
        if len(lv.var_indices) >= 2 and len(lv.rows) == len(lv.var_indices) + 1:
            visits.append((lv, list(vals), self.env, (self.seed, self.calls)))
        return candidates(self, li, vals)

    monkeypatch.setattr(_Search, "_candidates", record)
    region.nondisplaceable_region(build_model(preset))
    return visits


@pytest.mark.parametrize("preset, levels", [("wp:1,3,5", 4), ("wp:1,3,7", 10)])
def test_circuit_roots_hold_every_multistart_root(monkeypatch, preset, levels):
    # on each circuit level of the region's solves, every root that the
    # 64-start Newton of the same level data and starts key converges to
    # lies within 1e-6 of a closed-form root
    visits = _circuit_visits(monkeypatch, preset)
    assert len(visits) == levels
    for lv, vals, env, key in visits:
        exact = _circuit_candidates(lv, vals, env)
        # the roots of the cofactor relation, bit for bit
        assert exact == oracles.circuit_roots_by_cofactors(lv, vals, env)
        data = _level_data(lv.terms, lv.var_indices, vals, env)
        ys, res, _ = _newton(data, _starts(key, MULTISTARTS, len(lv.var_indices)))
        found = _distinct_roots(ys, res)
        assert exact and found
        for y in found:
            assert min(max(abs(p - q) for p, q in zip(y, z)) for z in exact) < 1e-6


@st.composite
def circuit_levels(draw):
    # a level of d + 1 rows in 1-3 own variables after 0-1 lower ones, with
    # the lower coordinate fixed; small own exponents give dependent rows,
    # zero cofactors and the Euler case sum L = 0 often
    lower, d = draw(st.integers(0, 1)), draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-1, 1)] * lower, *[st.integers(-2, 2)] * d)
    coeffs = st.sampled_from([QC(1), QC(-1), QC(2), QC(Fraction(1, 2))])
    rows = draw(st.lists(st.tuples(exps, coeffs), min_size=d + 1, max_size=d + 1, unique_by=lambda t: t[0]))
    lv = LtsLevel(None, tuple(sorted(rows, key=lambda t: t[0])), tuple(range(lower, lower + d)), lower + d)
    vals = [draw(st.sampled_from([1, -1, 2, 0.5 + 0.5j])) for _ in range(lower)] + [None] * d
    return lv, vals


@given(circuit_levels())
@settings(max_examples=300, deadline=None)
def test_circuit_relation_is_the_cofactor_relation(case):
    # the level's one relation is a rational multiple of its signed
    # cofactors, its sum vanishes with det(b_k - b_0), and the closed form
    # finds the roots the cofactor relation gave
    lv, vals = case
    cof = oracles.circuit_relation(lv.own)
    assert (len(lv.relations) == 1) == any(cof)
    if any(cof):
        (rel,) = lv.relations
        k = next(i for i, c in enumerate(cof) if c)
        assert rel[k] and all(rel[i] * cof[k] == rel[k] * cof[i] for i in range(len(cof)))
        shifted = [[x - y for x, y in zip(b, lv.own[0])] for b in lv.own[1:]]
        assert (sum(rel) == 0) == (oracles.det_cofactor(shifted) == 0)
    roots = _circuit_candidates(lv, vals, {})
    want = oracles.circuit_roots_by_cofactors(lv, vals, {})
    if roots is None or want is None:
        assert roots is want is None
    else:
        assert len(roots) == len(want)
        for y in roots:
            assert min(max(abs(p - q) for p, q in zip(y, z)) for z in want) < 1e-9


def test_singular_circuit_takes_the_multistart(monkeypatch):
    # wp:1,3,5 piece 109: rows y1^-1 y2^2, y2 and y1 have the relation
    # (1, -2, 1), whose sum is 0 (the Euler case), so the closed form
    # declines and the palette runs its 64 starts
    from orbifloer import ltsolver, region

    m = build_model("wp:1,3,5")
    (piece,) = [p for p in region.nondisplaceable_region(m).pieces if p.scenario.serial == 109]
    lts = region.scenario_lts(m, piece.scenario)
    (lv,) = lts.levels
    assert [a for a, _ in lv.rows] == [(-1, 2), (0, 1), (1, 0)]
    starts = []
    newton = ltsolver._newton

    def counted(data, z0, **kw):
        starts.append(len(z0))
        return newton(data, z0, **kw)

    monkeypatch.setattr(ltsolver, "_newton", counted)
    for env in _symbol_assignments(lts):
        assert _circuit_candidates(lv, [None, None], env) is None
    search = _Search(lts, _symbol_assignments(lts)[0], 0)
    search.run()
    assert starts[0] == MULTISTARTS and search.calls == 1


def test_circuit_level_advances_the_starts_key(monkeypatch):
    # a circuit level, y1 + y2 + 1/(y1 y2), below a level of four rows: the
    # closed form stands in for the first multistart, so the second one
    # still draws its starts with the key (seed, 1)
    from orbifloer import ltsolver

    lts = _system(
        4,
        ((((1, 0, 0, 0), QC(1)), ((0, 1, 0, 0), QC(1)), ((-1, -1, 0, 0), QC(1))), (0, 1)),
        ((((0, 0, 1, 0), QC(1)), ((0, 0, 0, 1), QC(1)), ((0, 0, -1, 0), QC(1)), ((0, 0, 0, -1), QC(1))), (2, 3)),
    )
    keys = []
    starts = ltsolver._starts

    def recorded(key, *args):
        keys.append(key)
        return starts(key, *args)

    monkeypatch.setattr(ltsolver, "_starts", recorded)
    assert _Search(lts, {}, 0).run() is not None
    assert keys == [(0, 1)]
