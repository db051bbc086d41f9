"""Stratification, adapted-coordinate systems, and solvability verdicts."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbifloer.errors import SpanNeverFull
from orbifloer.lattice import invert_unimodular
from orbifloer.ltsolver import (
    LeadingTermSystem,
    Solvability,
    _distinct_roots,
    _EqData,
    _FreeEqData,
    _integer_env,
    _newton,
    _parity_rows,
    _parity_table,
    _sign_bits,
    _starts,
    _vanishes,
    build_lts,
    lts_signature,
    scenario_stratification,
    signature_symbols,
    solve,
    stratify,
)
from orbifloer.potential import BulkParam
from orbifloer.series import QC, LaurentPoly, NovikovScalar, SymLin, render_poly
from orbifloer.stacky import build_model, enumerate_box, sector_ell


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
    assert st.member_count == 2


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
    assert st.member_count == 5
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
    assert invert_unimodular(lts.basis)  # basis is unimodular
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
        m, [tags], {tags[0]: QC.of(1), tags[1]: SymLin.symbol("c")}
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
        m, [tags], {tags[0]: QC.of(1), tags[1]: SymLin.symbol("c")}
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
        m, [tags], {tags[0]: QC.of(1), tags[1]: QC.of(1), tags[2]: SymLin.symbol("c")}
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
        {tags[0]: QC.of(1), tags[1]: SymLin.symbol("c0"), tags[2]: SymLin.symbol("c1")},
    )
    v = solve(build_lts(st))
    assert v.status == Solvability.SolvableCertified
    c = dict(v.certificate.symbol_values)
    assert abs(c["c0"] ** 2 - 4 * c["c1"]) < 1e-8
    assert v.certificate.residual < 1e-10


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
        lev1[1]: SymLin.symbol("c"),
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
        lev1[1]: SymLin.symbol("c"),
        lev2[0]: QC.of(1),
        lev2[1]: QC.of(1),
    }
    st = scenario_stratification(m, [lev1, lev2], coeffs)
    lts = build_lts(st)
    assert tuple(map(abs, lts.basis[0])) != (1, 0)  # basis actually reorders
    v = solve(lts)
    assert v.status == Solvability.SolvableCertified

    minv = invert_unimodular(lts.basis)
    z = v.certificate.y
    yorig = tuple(
        complex(z[0]) ** minv[i][0] * complex(z[1]) ** minv[i][1] for i in range(2)
    )
    env = dict(v.certificate.symbol_values)
    for lv, orig in zip(lts.levels, st.levels):
        poly = LaurentPoly.zero(2)
        for direction, coeff in zip(orig.directions, orig.coeffs):
            poly = poly + LaurentPoly.monomial(direction, NovikovScalar.of(coeff))
        assert abs(
            poly.eval_complex(yorig, 1.0, env) - lv.poly.eval_complex(z, 1.0, env)
        ) < 1e-9
        # z_j d/dz_j = sum_i M_ij * y_i d/dy_i: own-direction gradients vanish
        g = [poly.log_derivative(k).eval_complex(yorig, 1.0, env) for k in range(2)]
        for j in lv.var_indices:
            assert abs(sum(minv[i][j] * g[i] for i in range(2))) < 1e-8


def test_signature_stable_under_symbol_names():
    m = build_model("teardrop:3")
    i1 = sector_index(m, (1,))
    tags = [("facet", 1), ("sector", i1)]

    def make(symbol):
        st = scenario_stratification(
            m, [tags], {tags[0]: QC.of(1), tags[1]: SymLin.symbol(symbol)}
        )
        return build_lts(st)

    assert lts_signature(make("c")) == lts_signature(make("zz"))
    other = build_lts(stratify(m, (Fraction(0),)))
    assert lts_signature(make("c")) != lts_signature(other)

    # both sectors on the facet's level: a repeated symbol is another system,
    # and so is a conjugate coefficient
    both = tags + [("sector", sector_index(m, (2,)))]

    def sig(*coeffs):
        st = scenario_stratification(m, [both], dict(zip(both, (QC.of(1), *coeffs))))
        return lts_signature(build_lts(st))

    a, b = SymLin.symbol("a"), SymLin.symbol("b")
    assert sig(a, b) == sig(b, a) != sig(a, a)
    assert sig(QC(1, 1), a) != sig(QC(1, -1), a)


@pytest.mark.parametrize("preset", ["teardrop:5", "wp:1,3,5", "square:2,2,2,2", "wp:1,2,3,5"])
def test_build_lts_matches_rewrite_oracle_at_points(preset):
    # seeded interior points, half the sectors switched on and mostly tied
    # to the lowest facet energy, with constant and symbolic coefficients
    m = build_model(preset)
    box = enumerate_box(m)
    rng = random.Random(f"rows/{preset}")
    palette = [QC(1), QC(-1), QC(Fraction(1, 2), 1), SymLin.symbol("b"), SymLin(2, (("a", 3),))]
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
        lts, want = build_lts(strat), oracles.lts_by_rewrite(strat)
        assert lts == want and oracles.lts_terms(lts) == oracles.lts_terms(want), u
        sig, symbols = oracles.signature_by_terms(want)
        assert signature_symbols(lts) == symbols
        pairs.append((lts_signature(lts), sig))
    assert oracles.one_to_one(pairs)


def test_solve_deterministic():
    m = build_model("wp:1,2,2")
    lts = build_lts(stratify(m, (Fraction(-1, 12), Fraction(-1, 12))))
    a = solve(lts, seed=5)
    b = solve(lts, seed=5)
    assert a == b


def parity_vanishes(p, env, y):
    den, at = _integer_env(env)
    return _vanishes(_parity_table(_parity_rows(p), den, at), _sign_bits(y))


gaussian = st.builds(
    QC,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
symbolic = st.builds(
    SymLin,
    gaussian,
    st.lists(
        st.tuples(st.sampled_from(["c0", "c1"]), gaussian), max_size=2, unique_by=lambda t: t[0]
    ),
)
# the exact palette: 1, -1 and minus the facet labels; a half and i as well
palette = st.sampled_from([QC(1), QC(-1), QC(-2), QC(-3), QC(-5), QC(Fraction(1, 2)), QC(0, 1)])


@st.composite
def t_free_cases(draw):
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    terms = draw(
        st.lists(
            st.tuples(exps, st.one_of(gaussian, symbolic)), max_size=5, unique_by=lambda t: t[0]
        )
    )
    p = LaurentPoly(n, [(e, NovikovScalar.of(c)) for e, c in terms])
    env = {"c0": draw(palette), "c1": draw(palette)}
    y = draw(st.tuples(*[st.sampled_from([1, -1])] * n))
    return p, env, y


@given(t_free_cases())
@settings(max_examples=200, deadline=None)
def test_parity_table_agrees_with_eval_exact(case):
    p, env, y = case
    yq = tuple(QC(v) for v in y)
    value = p.eval_exact(yq, env)
    assert parity_vanishes(p, env, y) == value.is_zero()
    # shifted to vanish at y, so both outcomes are exercised
    q = p - LaurentPoly.monomial((0,) * p.n, NovikovScalar.of(value))
    assert q.eval_exact(yq, env).is_zero()
    assert parity_vanishes(q, env, y)


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


def test_sign_bits_refuses_non_unit_coordinates():
    assert _sign_bits((1, -1, -1)) == 0b110
    assert _sign_bits((QC(-1), QC(1))) == 0b01
    for bad in ((1, 2), (QC(Fraction(1, 2)),), (1, -1j)):
        with pytest.raises(ValueError):
            _sign_bits(bad)


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


def _poly(n, terms):
    return LaurentPoly(n, [(e, NovikovScalar.of(c)) for e, c in terms])


def test_newton_square_step_survives_a_singular_jacobian():
    # y0*y1 = 2 and y0 = y1: the log-Jacobian rows (y0*y1, y0*y1) and
    # (y0, -y1) are dependent exactly where y0 = -y1
    eqs = (
        _poly(2, [((1, 1), QC(1)), ((0, 0), QC(-2))]),
        _poly(2, [((1, 0), QC(1)), ((0, 1), QC(-1))]),
    )
    data = _EqData(eqs, (0, 1), [None, None], [{}])
    starts = np.array([[1.0, -1.0], [1.3, 0.7]], dtype=complex)
    zs, res = _newton(data, starts)
    assert zs[0].tolist() == [1.0, -1.0]
    assert res[1] < 1e-12
    assert abs(zs[1, 0] - 2**0.5) < 1e-9 and abs(zs[1, 1] - 2**0.5) < 1e-9


def test_newton_wide_step_solves_for_free_coefficients():
    # c*y - 2 = 0 with the symbol c joined as an unknown: one equation in
    # two unknowns.  The minimal-norm log step is along (1, 1), so c/y
    # keeps its starting value and the end point is fixed by c*y = 2
    eq = _poly(1, [((1,), SymLin.symbol("c")), ((0,), QC(-2))])
    data = _FreeEqData((eq,), (0,), [None], {}, ["c"])
    zs, res = _newton(data, np.array([[1.0, 1.0], [1.0, 4.0]], dtype=complex))
    assert (res < 1e-12).all()
    r = 2**0.5
    assert np.allclose(zs, [[r, r], [1 / r, 2 * r]], rtol=0, atol=1e-12)


def _two_symbol_level():
    # s0*y0*y1^2 - 1 and s1*y0^2*y1 + 2: with s0 = s1 = 0 both equations are
    # constants and the log-Jacobian is zero at every start
    s0, s1 = SymLin.symbol("s0"), SymLin.symbol("s1")
    return (
        _poly(2, [((1, 2), s0), ((0, 0), QC(-1))]),
        _poly(2, [((2, 1), s1), ((0, 0), QC(2))]),
    )


ENVS = ({"s0": 1.0, "s1": 1.0}, {"s0": 0j, "s1": 0j}, {"s0": -1 + 0.5j, "s1": 2.0})


def test_newton_batch_over_assignments_matches_each_alone():
    eqs = _two_symbol_level()
    starts = _starts((0, 0), 64, 2)
    batch = _EqData(eqs, (0, 1), [None, None], ENVS)
    zs, res = _newton(batch, np.tile(starts, (len(ENVS), 1)))
    for k, env in enumerate(ENVS):
        alone = _EqData(eqs, (0, 1), [None, None], [env])
        zk, rk = _newton(alone, starts)
        assert np.array_equal(zs[64 * k : 64 * (k + 1)], zk)
        assert np.array_equal(res[64 * k : 64 * (k + 1)], rk)
        # a block view evaluates like its assignment alone, and the values
        # without the Jacobian are the values with it
        fv, jm = batch.block(k).f_and_jlog(zk)
        fa, ja = alone.f_and_jlog(zk)
        assert np.array_equal(fv, fa) and np.array_equal(jm, ja)
        assert np.array_equal(alone.f_and_jlog(zk, jac=False)[0], fa)
        assert np.array_equal((np.abs(fa) * np.abs(zk)).max(axis=1), rk)
    assert (res[:64] < 1e-12).any() and (res[128:] < 1e-12).any()
    # the constant assignment never moves
    assert np.array_equal(zs[64:128], starts)


class _Fixed:
    """Newton data with fixed values and one given log-Jacobian per evaluation."""

    def __init__(self, fv, jms):
        self.own = (0, 1)
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
    zs, _ = _newton(_Fixed(fv, [mixed, regular]), z0, iters=2)
    for k in range(n):
        if k in singular:
            assert np.array_equal(zs[k], z0[k])
        else:
            step = np.exp(np.linalg.solve(regular[k], -fv[k]))
            assert np.array_equal(zs[k], z0[k] * step * step)


def test_newton_all_singular_batch_stops_after_one_iteration():
    data = _EqData(_two_symbol_level(), (0, 1), [None, None], [ENVS[1]] * 2)
    calls = []
    evaluate = data.f_and_jlog
    data.f_and_jlog = lambda zs, jac=True: calls.append(jac) or evaluate(zs, jac)
    starts = np.tile(_starts((0, 0), 64, 2), (2, 1))
    zs, res = _newton(data, starts)
    assert np.array_equal(zs, starts)
    # one Newton iteration, then the evaluation that finds no start working
    # is returned as it is
    assert calls == [True, True]
    assert np.array_equal(res, np.maximum(np.abs(starts[:, 0]), 2 * np.abs(starts[:, 1])))


# on wp:1,3,5 every batch ends unknown; on wp:1,3,7 one batched assignment
# certifies its system
@pytest.mark.parametrize("preset, systems, unknown", [("wp:1,3,5", 46, 8), ("wp:1,3,7", 130, 12)])
def test_solve_matches_unbatched_oracle_on_region(preset, systems, unknown):
    from orbifloer import region

    # the distinct systems of the feasible candidates without a one-member
    # level, coloop levels included: those are the ones that end unknown
    m = build_model(preset)
    seen = {}
    for s in region.enumerate_scenarios(m):
        if any(len(tags) == 1 for tags in s.levels) or region.scenario_region(m, s) is None:
            continue
        lts = region.scenario_lts(m, s)
        sig = lts_signature(lts)
        if sig not in seen:
            seen[sig] = (lts, solve(lts))
    statuses = [v.status for _, v in seen.values()]
    assert len(seen) == systems and statuses.count(Solvability.UnknownLikelyUnsolvable) == unknown
    for lts, verdict in seen.values():
        status, cert = oracles.solve_each_assignment_alone(lts)
        assert verdict.status is status
        if cert is None:
            assert verdict.certificate is None
        else:
            assert verdict.certificate.y == cert.y
            assert verdict.certificate.symbol_values == cert.symbol_values
