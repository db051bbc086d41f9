"""Energy stratification, leading term equations, and solvability verdicts.

At a fiber point the generators (facets, plus bulk-activated sectors) sort
by energy; the adapted lattice basis turns each energy level into a Laurent
polynomial whose own-variable critical equations make up the leading term
system.  Solvability of that system over (C*)^n certifies the fiber.

Everything up to the verdict is exact.  The numeric search only ever
produces SolvableCertified (re-verified residuals) or gives up; proven
unsolvability comes from the single structural special case, a level
polynomial that is one monomial, whose derivative is again a monomial
and therefore never zero on the torus.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np

from .errors import InputError, SpanNeverFull
from .lattice import invert_unimodular, rank_rational, saturate_flag
from .potential import BulkParam, root_key
from .series import QC, LaurentPoly, NovikovScalar, SymLin, c_add, c_is_zero, c_mul
from .stacky import StackyModel, enumerate_box, sector_ell


# member tags are ("facet", j) or ("sector", box_index)


@dataclass(frozen=True)
class StratumLevel:
    energy: Fraction | None  # None when built from a scenario, not a point
    members: tuple
    directions: tuple
    coeffs: tuple
    d: int  # span dimension added by this level
    span_dim: int  # cumulative span dimension


@dataclass(frozen=True)
class EnergyStratification:
    model: StackyModel
    u: tuple | None
    levels: tuple  # StratumLevel, lowest energy first, cut at full span
    adapted_basis: tuple  # rows; prefix of length span_dim spans each stage

    @property
    def member_count(self) -> int:
        return sum(len(lv.members) for lv in self.levels)


def stratify(m: StackyModel, u, bp: BulkParam | None = None) -> EnergyStratification:
    """Sort generators by energy at u and cut at the first full-span level.

    Facet j sits at energy ell_j(u); an activated sector at
    ell_nu(u) + lambda_nu.  Bulk exponents must be concrete rationals
    (scenario machinery never calls this).  Levels that add no span
    dimension still appear: their members are part of the partition below
    the cut, they just own no variables.
    """
    m.require_interior(u)
    uu = tuple(Fraction(x) for x in u)
    bp = bp or BulkParam.zero()
    box = enumerate_box(m)
    by_nu = {s.nu: (i, s) for i, s in enumerate(box)}
    entries = []
    for j, f in enumerate(m.facets):
        entries.append((m.ell(j, uu), ("facet", j), f.stacky_vector, QC.of(1)))
    for e in bp.entries:
        if e.nu not in by_nu:
            raise InputError(f"{e.nu} is not a twisted sector of this model")
        if isinstance(e.coeff, QC) and e.coeff.is_zero():
            continue
        i, s = by_nu[e.nu]
        entries.append((sector_ell(m, s, uu) + e.exponent, ("sector", i), e.nu, e.coeff))

    by_energy: dict = {}
    for en, tag, direction, coeff in entries:
        by_energy.setdefault(en, []).append((tag, direction, coeff))

    levels = []
    groups = ((en, sorted(by_energy[en], key=lambda g: g[0])) for en in sorted(by_energy))
    for lv in _stratum_levels(groups):
        levels.append(lv)
        if lv.span_dim == m.dim:
            break
    else:
        raise SpanNeverFull("finite-energy generators never span; model is inconsistent")
    return EnergyStratification(m, uu, tuple(levels), _adapted_basis(levels))


def _stratum_levels(groups, span_dims=()):
    """The StratumLevel of each (energy, [(tag, direction, coeff), ...]) group.

    Groups come lowest first.  A level's cumulative span dimension is read
    from span_dims when the caller knows it (the scenario walk does), and
    otherwise is the rank of the directions so far.  Levels are yielded one
    at a time, so a caller can stop at full span.
    """
    seen: list = []
    prev_rank = 0
    for l, (energy, group) in enumerate(groups):
        dirs = tuple(g[1] for g in group)
        if span_dims:
            r = span_dims[l]
        else:
            seen.extend(dirs)
            r = rank_rational(seen)
        yield StratumLevel(
            energy, tuple(g[0] for g in group), dirs, tuple(g[2] for g in group), r - prev_rank, r
        )
        prev_rank = r


def _adapted_basis(levels) -> tuple:
    chain = []
    acc: list = []
    for lv in levels:
        acc = acc + list(lv.directions)
        chain.append(list(acc))
    return tuple(saturate_flag(chain))


def scenario_stratification(m: StackyModel, groups, coeffs, span_dims=()) -> EnergyStratification:
    """Stratification-shaped data from an abstract level assignment.

    ``groups`` lists the member tags per level, lowest first; ``coeffs``
    maps tags to coefficients; ``span_dims``, the cumulative span
    dimension after each level, is taken as given when it is known and
    computed when it is empty.  No energies are involved: the caller is
    responsible for the feasibility of the assignment, this only rebuilds
    the span bookkeeping so build_lts can run on it.
    """
    box = enumerate_box(m)

    def member(tag):
        kind, i = tag
        return tag, m.facets[i].stacky_vector if kind == "facet" else box[i].nu, coeffs[tag]

    groups = ((None, [member(tag) for tag in group]) for group in groups)
    levels = tuple(_stratum_levels(groups, span_dims))
    if not levels or levels[-1].span_dim != m.dim:
        raise SpanNeverFull("scenario levels do not span")
    return EnergyStratification(m, None, levels, _adapted_basis(levels))


@dataclass(frozen=True)
class LtsLevel:
    energy: Fraction | None
    poly: LaurentPoly  # in adapted coordinates, T-free
    var_indices: tuple  # adapted coordinates owned by this level
    equations: tuple  # partial derivatives wrt the owned coordinates


@dataclass(frozen=True)
class LeadingTermSystem:
    n: int
    basis: tuple  # adapted basis rows
    levels: tuple  # LtsLevel
    symbols: tuple  # free coefficient names, sorted
    labels: tuple  # facet labels, for the special coefficient palette


def exponent_rows(strat: EnergyStratification) -> tuple:
    """Each level's terms in adapted coordinates, with the coordinates it owns.

    Returns one (rows, own) pair per level.  A member's exponent is the
    integer row direction @ invert_unimodular(adapted basis); members with
    equal exponents merge into one row whose coefficient is their sum, as
    LaurentPoly merges equal monomials, and a zero sum drops the row.  The
    rows are (exponent, coefficient) pairs sorted by exponent.  Level l may
    only involve coordinates of levels <= l; that drop-out is what the
    adapted basis buys and it is asserted here.
    """
    n = strat.model.dim
    cols = tuple(zip(*invert_unimodular(strat.adapted_basis)))
    out = []
    for lv in strat.levels:
        merged: dict = {}
        for direction, coeff in zip(lv.directions, lv.coeffs):
            e = tuple(sum(map(mul, direction, col)) for col in cols)
            merged[e] = c_add(merged[e], coeff) if e in merged else coeff
        rows = tuple(sorted((e, c) for e, c in merged.items() if not c_is_zero(c)))
        if any(e[k] for e, _ in rows for k in range(lv.span_dim, n)):
            raise AssertionError("adapted rewrite leaked a later-level variable")
        out.append((rows, tuple(range(lv.span_dim - lv.d, lv.span_dim))))
    return tuple(out)


def build_lts(strat: EnergyStratification, rows=None) -> LeadingTermSystem:
    """Each level as a polynomial in adapted coordinates, with its equations.

    ``rows`` are the exponent_rows of strat, computed when not given.  The
    change of basis is unimodular, so the rewrite is a bijection on (C*)^n
    and solvability is unaffected.  The equation of an owned coordinate i
    has the term c * a_i * y^(a - e_i) for every row (a, c) with a_i != 0.
    """
    n = strat.model.dim
    names = set()
    for lv in strat.levels:
        for coeff in lv.coeffs:
            if isinstance(coeff, SymLin):
                names.update(name for name, _ in coeff.lin)
    out = []
    for lv, (terms, own) in zip(strat.levels, rows or exponent_rows(strat)):
        poly = LaurentPoly(n, tuple((e, NovikovScalar.of(c)) for e, c in terms))
        eqs = tuple(
            LaurentPoly(
                n,
                tuple(
                    (e[:i] + (e[i] - 1,) + e[i + 1 :], NovikovScalar.of(c_mul(c, e[i])))
                    for e, c in terms
                    if e[i]
                ),
            )
            for i in own
        )
        out.append(LtsLevel(lv.energy, poly, own, eqs))
    return LeadingTermSystem(
        n,
        strat.adapted_basis,
        tuple(out),
        tuple(sorted(names)),
        tuple(f.label for f in strat.model.facets),
    )


class Solvability(str, Enum):
    SolvableCertified = "SolvableCertified"
    UnknownLikelyUnsolvable = "UnknownLikelyUnsolvable"
    UnsolvableProven = "UnsolvableProven"


@dataclass(frozen=True)
class Certificate:
    symbol_values: tuple  # (name, complex), sorted by name
    y: tuple  # adapted coordinates, complex
    residual: float
    exact: bool  # residual is literally zero in exact arithmetic


@dataclass(frozen=True)
class SolvabilityVerdict:
    status: Solvability
    certificate: Certificate | None = None
    proof: str | None = None


def row_signature(levels) -> tuple:
    """(key, symbols) of a system given as (rows, own) pairs per level.

    Systems with equal keys get equal verdicts.  The rows are sorted
    (exponent, coefficient) pairs (exponent_rows); symbols are renamed by
    first appearance, level by level, row by row and in name order within
    a coefficient, and ``symbols`` lists the original names in that order,
    so two systems with one key correspond symbol by symbol through them.
    A Gaussian rational coefficient enters as (re, im), a symbolic one as
    (re, im, ((index, re, im), ...)).
    """
    names: dict = {}
    key = []
    for rows, own in levels:
        terms = []
        for e, c in rows:
            if isinstance(c, QC):
                terms.append((e, c.re, c.im))
            else:
                lin = tuple((names.setdefault(name, len(names)), q.re, q.im) for name, q in c.lin)
                terms.append((e, c.const.re, c.const.im, lin))
        key.append((tuple(terms), own))
    return tuple(key), tuple(names)


def _lts_levels(lts: LeadingTermSystem):
    # the (rows, own) pairs of a built system, read from its polynomials
    for lv in lts.levels:
        yield tuple((e, s.leading_coefficient()) for e, s in lv.poly.terms()), lv.var_indices


def signature_symbols(lts: LeadingTermSystem) -> tuple:
    """Symbol names in the order lts_signature renames them.

    Two systems with equal signatures correspond symbol by symbol through
    these tuples.
    """
    return row_signature(_lts_levels(lts))[1]


def lts_signature(lts: LeadingTermSystem):
    """Hashable structural key: systems with equal keys get equal verdicts."""
    return row_signature(_lts_levels(lts))[0]


# deterministic generic nonzero coefficients, spread in modulus and phase
GENERIC_COEFFS = tuple(
    complex((0.6 + 0.09 * k) * np.cos(2.39996 * k + 0.5), (0.6 + 0.09 * k) * np.sin(2.39996 * k + 0.5))
    for k in range(16)
)


def _never_zero(coeff) -> bool:
    # constants are nonzero by normalization; a pure symbol ranges over C*
    if isinstance(coeff, QC):
        return not coeff.is_zero()
    return (coeff.const.is_zero() and len(coeff.lin) == 1) or (
        coeff.is_constant() and not coeff.const.is_zero()
    )


def _symbol_assignments(lts: LeadingTermSystem, limit_exact: int = 64) -> list:
    names = lts.symbols
    if not names:
        return [{}]
    special = [QC.of(1), QC.of(-1)]
    for c in sorted(set(lts.labels)):
        q = QC.of(-c)
        if q not in special:
            special.append(q)
    out = []
    for combo in itertools.islice(itertools.product(special, repeat=len(names)), limit_exact):
        out.append(dict(zip(names, combo)))
    for k in range(16):
        out.append(
            {nm: GENERIC_COEFFS[(k + 3 * idx) % 16] for idx, nm in enumerate(names)}
        )
    return out


def _env_is_exact(env) -> bool:
    return all(isinstance(v, QC) for v in env.values())


# Exact palette kernel.  Exact candidates have every coordinate +-1 and the
# exact palette is integral, so a level equation at a sign pattern is a signed
# sum of its Gaussian-rational coefficients: only exponent parities matter.
# Equations are compiled once per solve into integer rows over a positive
# common denominator (which does not move the zero set); Gaussian integers
# are (re, im) pairs of ints.


def _common_denominator(values) -> int:
    """Least positive common denominator of Gaussian rationals."""
    return lcm(*(x.denominator for v in values for x in (v.re, v.im)))


def _gaussian_int(v: QC, den: int) -> tuple:
    """den * v as (re, im) ints; den must be a common denominator of v."""
    return (v.re.numerator * (den // v.re.denominator), v.im.numerator * (den // v.im.denominator))


def _parity_rows(eq: LaurentPoly) -> tuple:
    """One level equation as rows (exponent parity mask, const, symbol coefficients).

    Bit k of the mask is the parity of the exponent of y_k; ``const`` is a
    Gaussian integer and the symbol coefficients are (name, Gaussian integer)
    pairs, all scaled by one positive common denominator.
    """
    terms = []
    for e, s in eq.terms():
        if any(q != 0 for q, _ in s.terms):
            raise ValueError("leading term equations must be T-free")
        c = s.leading_coefficient()
        const, lin = (c.const, c.lin) if isinstance(c, SymLin) else (c, ())
        terms.append((sum(1 << k for k, x in enumerate(e) if x & 1), const, lin))
    den = _common_denominator(v for _, const, lin in terms for v in (const, *(q for _, q in lin)))
    return tuple(
        (mask, _gaussian_int(const, den), tuple((name, _gaussian_int(q, den)) for name, q in lin))
        for mask, const, lin in terms
    )


def _integer_env(env) -> tuple:
    """(den, {name: Gaussian integer}) for an exact symbol assignment."""
    den = _common_denominator(env.values())
    return den, {name: _gaussian_int(v, den) for name, v in env.items()}


def _parity_table(rows, den: int, at: dict) -> tuple:
    """Rows with the symbols set to at[name] / den, scaled by den and merged by
    parity mask: ((mask, re, im), ...) with the zero sums dropped."""
    sums: dict = {}
    for mask, (re, im), lin in rows:
        re *= den
        im *= den
        for name, (a, b) in lin:
            x, y = at[name]
            re += a * x - b * y
            im += a * y + b * x
        acc = sums.get(mask, (0, 0))
        sums[mask] = (acc[0] + re, acc[1] + im)
    return tuple((mask, re, im) for mask, (re, im) in sums.items() if re or im)


def _vanishes(table, bits: int) -> bool:
    """Whether the equation is zero where y_k = -1 for the set bits, +1 elsewhere."""
    re = im = 0
    for mask, a, b in table:
        if (mask & bits).bit_count() & 1:
            re -= a
            im -= b
        else:
            re += a
            im += b
    return re == 0 and im == 0


def _sign_bits(coords) -> int:
    """Bit k set where exact coordinate k is -1; anything but +-1 is refused."""
    bits = 0
    for k, v in enumerate(coords):
        if v == -1:
            bits |= 1 << k
        elif v != 1:
            raise ValueError(f"exact palette coordinate {v!r} is not +-1")
    return bits


class _EqData:
    """Numeric view of one level under E symbol assignments, for the batched Newton.

    Points come as E blocks of equal length, block k under ``envs[k]``.
    Each block goes through its own matmul calls on the same operands as
    when its assignment runs alone, so its values carry the same bits
    whatever else is in the batch.
    """

    def __init__(self, equations, own, vals, envs):
        self.own = own
        self.blocks = len(envs)
        self.exps = []  # per equation: own-variable exponent rows, (T, d)
        self.ops = []  # per equation: matmul operands c and c * e_i, each (E, T, 1)
        for eq in equations:
            terms = eq.terms()
            cs = np.array(
                [[_term_value(e, s, vals, env) for e, s in terms] for env in envs], dtype=complex
            )
            es = np.array([[e[i] for i in own] for e, _ in terms], dtype=float)
            self.exps.append(es)
            self.ops.append([cs[..., None]] + [(cs * es[:, i])[..., None] for i in range(len(own))])

    def block(self, k):
        """The view of assignment k alone."""
        view = copy.copy(self)
        view.blocks = 1
        view.ops = [[op[k : k + 1] for op in ops] for ops in self.ops]
        return view

    def f_and_jlog(self, ys, jac=True):
        """Values and, if jac, the log-Jacobian at a batch of points ys: (E * S, d)."""
        n, d = ys.shape
        fv = np.empty((n, len(self.ops)), dtype=complex)
        jm = np.empty((n, len(self.ops), d), dtype=complex) if jac else None
        for r, (e, ops) in enumerate(zip(self.exps, self.ops)):
            mono = np.prod(ys[:, None, :] ** e[None, :, :], axis=2).reshape(self.blocks, -1, len(e))
            fv[:, r] = (mono @ ops[0]).reshape(n)
            if jac:
                for i in range(d):
                    jm[:, r, i] = (mono @ ops[i + 1]).reshape(n)
        return fv, jm


def _term_value(e, s, vals, env) -> complex:
    """A term's complex coefficient times the value of its fixed-variable part."""
    c = s.eval_complex(1.0, env)  # T-free by construction
    for k, val in enumerate(vals):
        if val is not None and e[k]:
            c *= complex(val) ** e[k]
    return c


class _FreeEqData:
    """Level equations with the level's own symbols joined as unknowns.

    Unknown layout z = (y_own..., c_sym...); the c's live on the torus
    just like the y's (zero is never a legal coefficient), so the same
    multiplicative Newton applies.  Coefficients are affine in symbols by
    construction, giving every term a base value plus a symbol-matrix row.
    """

    def __init__(self, equations, own, vals, env, sym_names):
        self.own = own
        self.sym = tuple(sym_names)
        s = len(self.sym)
        pos = {nm: k for k, nm in enumerate(self.sym)}
        self.base = []
        self.amat = []
        self.exps = []
        for eq in equations:
            bs, rows, es = [], [], []
            for e, scal in eq.terms():
                coeff = scal.leading_coefficient()
                row = [0j] * s
                if isinstance(coeff, QC):
                    b = coeff.to_complex()
                else:
                    b = coeff.const.to_complex()
                    for nm, q in coeff.lin:
                        if nm in pos:
                            row[pos[nm]] = q.to_complex()
                        else:
                            b += q.to_complex() * complex(env[nm])
                for k, val in enumerate(vals):
                    if val is not None and e[k]:
                        scale = complex(val) ** e[k]
                        b *= scale
                        row = [x * scale for x in row]
                bs.append(b)
                rows.append(row)
                es.append([e[i] for i in own])
            self.base.append(np.array(bs, dtype=complex))
            self.amat.append(np.array(rows, dtype=complex))
            self.exps.append(np.array(es, dtype=float))

    def f_and_jlog(self, zs, jac=True):
        """Values and, if jac, the log-Jacobian at a batch zs: (S, d + s)."""
        d = len(self.own)
        s = len(self.sym)
        y = zs[:, :d]
        c = zs[:, d:]
        fv = np.empty((len(zs), len(self.base)), dtype=complex)
        jm = np.empty((len(zs), len(self.base), d + s), dtype=complex) if jac else None
        for r, (b, a, e) in enumerate(zip(self.base, self.amat, self.exps)):
            mono = np.prod(y[:, None, :] ** e[None, :, :], axis=2)
            coeff = b[None, :] + c @ a.T
            fv[:, r] = (coeff * mono).sum(axis=1)
            if not jac:
                continue
            for i in range(d):
                jm[:, r, i] = (coeff * mono * e[None, :, i]).sum(axis=1)
            for k in range(s):
                jm[:, r, d + k] = c[:, k] * (mono @ a[:, k])
        return fv, jm


def _newton(data, z0, iters: int = 60):
    """Log-coordinate Newton on a batch of starts; returns (points, residuals).

    The first len(data.own) coordinates are the y's.  Residuals are the
    scaled |y_r * eq_r| used by the certificate check: the raw equation
    values of all-negative-exponent systems vanish along escapes to
    infinity, and the scaled metric is what keeps those fake wells out of
    the candidate list.  A square log-Jacobian takes the Newton step; a
    start whose Jacobian LU meets an exact zero pivot (slogdet sign 0, just
    where solve raises) stops where it is and is dropped.  A wide one, with
    free coefficients joined as unknowns, takes the minimal-norm step.
    Each row's step comes from its own LAPACK call, so the rows of several
    symbol assignments can share one batch.  The loop stops once no start
    is still working, and the residuals of its last evaluation are
    returned; after the last iteration only the values are evaluated.
    """
    zs = np.array(z0, dtype=complex)
    d = len(data.own)
    alive = np.ones(len(zs), dtype=bool)
    for _ in range(iters):
        fv, jm = data.f_and_jlog(zs)
        res = (np.abs(fv) * np.abs(zs[:, :d])).max(axis=1)
        work = alive & (res > 1e-14)
        if not work.any():
            return zs, res
        if jm.shape[1] == jm.shape[2]:
            a, b = jm[work], -fv[work][..., None]
            try:
                dx = np.linalg.solve(a, b)[..., 0]
            except np.linalg.LinAlgError:
                sign, _ = np.linalg.slogdet(a)
                regular = sign != 0
                dx = np.zeros((len(a), zs.shape[1]), dtype=complex)
                dx[regular] = np.linalg.solve(a[regular], b[regular])[..., 0]
                alive[np.nonzero(work)[0][~regular]] = False
        else:
            try:
                pin = np.linalg.pinv(jm[work])
            except np.linalg.LinAlgError:
                break
            dx = (pin @ (-fv[work][..., None]))[..., 0]
        norms = np.linalg.norm(dx, axis=1)
        big = norms > 3.0
        dx[big] *= (3.0 / norms[big])[:, None]
        zs[work] *= np.exp(dx)
        bad = (np.abs(zs) > 1e9).any(axis=1) | (np.abs(zs) < 1e-9).any(axis=1)
        alive &= ~bad
    fv, _ = data.f_and_jlog(zs, jac=False)
    return zs, (np.abs(fv) * np.abs(zs[:, :d])).max(axis=1)


def _starts(key, count: int, width: int):
    """Seeded multistart points: moduli uniform in [0.3, 1.8], phases uniform."""
    rng = np.random.default_rng(key)
    radii = rng.uniform(0.3, 1.8, size=(count, width))
    angles = rng.uniform(0.0, 2 * np.pi, size=(count, width))
    return radii * np.exp(1j * angles)


def _multistart(data, key, count: int):
    """Newton from the starts of key under each of data's E assignments.

    Returns (E, count, d) end points and (E, count) residuals.
    """
    d = len(data.own)
    ys, res = _newton(data, np.tile(_starts(key, count, d), (data.blocks, 1)))
    return ys.reshape(data.blocks, count, d), res.reshape(data.blocks, count)


def _distinct_roots(ys, res, tol=1e-12):
    # filtering first keeps the stable sort's order of the kept points
    found = []
    for y in sorted((y for y, r in zip(ys, res) if not r > tol), key=root_key):
        if all(max(abs(a - b) for a, b in zip(y, f)) > 1e-6 for f in found):
            found.append(tuple(complex(c) for c in y))
    return found


def _univariate_candidates(eq, own_i, vals, env):
    """Complete root set of a one-variable level via closed form or companion."""
    bucket: dict = {}
    for e, s in eq.terms():
        bucket[e[own_i]] = bucket.get(e[own_i], 0j) + _term_value(e, s, vals, env)
    ks = sorted(k for k, c in bucket.items() if abs(c) > 1e-13)
    if not ks:
        return []  # equation vanished numerically; nothing trustworthy to branch on
    if len(ks) == 1:
        return []  # monomial: no torus roots (structural scan reports the proven case)
    if len(ks) == 2:
        # binomial c_hi y^hi + c_lo y^lo = 0 in closed form
        lo, hi = ks
        gap = hi - lo
        ratio = -bucket[lo] / bucket[hi]
        r = abs(ratio) ** (1.0 / gap)
        theta = np.angle(ratio) / gap
        return [
            (complex(r * np.cos(theta + 2 * np.pi * k / gap), r * np.sin(theta + 2 * np.pi * k / gap)),)
            for k in range(gap)
        ]
    lo = ks[0]
    deg = ks[-1] - lo
    coeff_vec = [bucket.get(ks[-1] - d, 0j) for d in range(deg + 1)]
    return [(complex(r),) for r in np.roots(coeff_vec) if abs(r) > 1e-8]


class _Search:
    """One solve attempt under a fixed symbol assignment.

    ``rows`` holds the _parity_rows of every level equation, per level.
    ``root``, when set, is this assignment's (data, end points, residuals)
    of the first level's multistart, taken from a batch over several
    assignments (_batch_first_level); otherwise the search runs it itself.
    """

    def __init__(self, lts, rows, env, seed, starts, exact_only=False):
        self.lts = lts
        self.env = env
        self.exact_env = _env_is_exact(env)
        self.rows = rows
        self.int_env = _integer_env(env) if self.exact_env else None
        self.tables = [None] * len(lts.levels)
        self.exact_only = exact_only
        self.seed = seed
        self.starts = starts
        self.calls = 0
        self.root = None

    def _tables(self, li):
        """Parity tables of level li under this search's exact env, built once."""
        if self.tables[li] is None:
            den, at = self.int_env
            self.tables[li] = tuple(_parity_table(r, den, at) for r in self.rows[li])
        return self.tables[li]

    def run(self):
        vals = [None] * self.lts.n
        evals = [None] * self.lts.n if self.exact_env else None
        return self._level(0, vals, evals)

    def _level(self, li, vals, evals):
        if li == len(self.lts.levels):
            return self._finish(vals, evals)
        lv = self.lts.levels[li]
        if not lv.var_indices:
            return self._level(li + 1, vals, evals)
        for cand, exact in self._candidates(li, vals, evals):
            for i, idx in enumerate(lv.var_indices):
                vals[idx] = cand[i]
                if evals is not None:
                    evals[idx] = exact[i] if exact else None
            hit = self._level(li + 1, vals, evals if exact or evals is None else None)
            if hit:
                return hit
            for idx in lv.var_indices:
                vals[idx] = None
                if evals is not None:
                    evals[idx] = None
        return None

    def _candidates(self, li, vals, evals):
        lv = self.lts.levels[li]
        d = len(lv.var_indices)
        out = []
        seen = set()
        first = lv.var_indices[0]
        if evals is not None and all(v is not None for v in evals[:first]) and d <= 6:
            tables = self._tables(li)
            fixed = _sign_bits(evals[:first])
            for combo in itertools.product((1, -1), repeat=d):
                bits = fixed | _sign_bits(combo) << first
                if all(_vanishes(t, bits) for t in tables):
                    cvec = tuple(complex(c) for c in combo)
                    out.append((cvec, combo))
                    seen.add(tuple((round(c.real, 6), round(c.imag, 6)) for c in cvec))
        if self.exact_only:
            return out
        if li == 0 and self.root is not None:
            data, ys, res = self.root
        else:
            data = _EqData(lv.equations, lv.var_indices, vals, [self.env])
            if d > 1:
                (ys,), (res,) = _multistart(data, (self.seed, self.calls), self.starts)
        if d == 1:
            numeric = _univariate_candidates(lv.equations[0], lv.var_indices[0], vals, self.env)
        else:
            self.calls += 1
            numeric = _distinct_roots(ys, res)
        if numeric:
            ys, res = _newton(data, np.array(numeric, dtype=complex), iters=20)
            for y, r in zip(ys, res):
                # magnitude window rejects drift toward 0 or infinity, where
                # scaled residuals of monomial-heavy equations go quiet
                if r > 1e-11 or any(not 1e-8 < abs(c) < 1e8 for c in y):
                    continue
                key = tuple((round(c.real, 6), round(c.imag, 6)) for c in y)
                if key not in seen:
                    seen.add(key)
                    out.append((tuple(complex(c) for c in y), None))
        return out[:16]

    def _finish(self, vals, evals):
        if any(v is None for v in vals):
            return None
        if evals is not None and all(v is not None for v in evals):
            bits = _sign_bits(evals)
            for li in range(len(self.lts.levels)):
                if not all(_vanishes(t, bits) for t in self._tables(li)):
                    return None
            return Certificate(
                tuple((nm, self.env[nm].to_complex()) for nm in self.lts.symbols),
                tuple(complex(v) for v in evals),
                0.0,
                True,
            )
        return _float_certificate(self.lts, vals, self.env)


def _float_certificate(lts, vals, env) -> Certificate | None:
    """Float certificate of the point vals under env, or None.

    The point must lie in the magnitude window and every scaled residual
    |y_i * eq_i(y)| must stay below 1e-10.
    """
    y = tuple(complex(v) for v in vals)
    if any(not 1e-8 < abs(c) < 1e8 for c in y):
        return None
    worst = 0.0
    for lv in lts.levels:
        for i, eq in zip(lv.var_indices, lv.equations):
            worst = max(worst, abs(y[i] * eq.eval_complex(y, 1.0, env)))
    if worst >= 1e-10:
        return None
    sym = tuple(
        (nm, env[nm].to_complex() if isinstance(env[nm], QC) else complex(env[nm]))
        for nm in lts.symbols
    )
    return Certificate(sym, y, worst, False)


def _level_symbols(lv) -> list:
    names = set()
    for _, scal in lv.poly.terms():
        c = scal.leading_coefficient()
        if isinstance(c, SymLin):
            names.update(nm for nm, _ in c.lin)
    return sorted(names)


class _FreeSearch:
    """Joint Newton over y and the free coefficients, after palettes fail.

    Some systems are solvable precisely because the coefficients can be
    tuned to an algebraic relation no finite palette hits (two sectors
    sharing one level can demand c0^2 = 4*c1).  Each level solves for its
    own variables together with its first-seen symbols; underdetermined
    steps take the minimal-norm direction.  Anything found is re-verified
    the same way as palette certificates.
    """

    def __init__(self, lts, seed, starts):
        self.lts = lts
        self.seed = seed
        self.starts = starts
        self.calls = 0

    def run(self):
        return self._level(0, [None] * self.lts.n, {})

    def _level(self, li, vals, env):
        if li == len(self.lts.levels):
            return self._finish(vals, env)
        lv = self.lts.levels[li]
        if not lv.var_indices:
            return self._level(li + 1, vals, env)
        new_syms = [nm for nm in _level_symbols(lv) if nm not in env]
        for ycand, ccand in self._candidates(lv, vals, env, new_syms):
            for i, idx in enumerate(lv.var_indices):
                vals[idx] = ycand[i]
            env.update(zip(new_syms, ccand))
            hit = self._level(li + 1, vals, env)
            if hit:
                return hit
            for idx in lv.var_indices:
                vals[idx] = None
            for nm in new_syms:
                del env[nm]
        return None

    def _candidates(self, lv, vals, env, new_syms):
        d = len(lv.var_indices)
        s = len(new_syms)
        key = (self.seed, 991, self.calls)
        self.calls += 1
        if s == 0:
            data = _EqData(lv.equations, lv.var_indices, vals, [env])
            if d == 1:
                starts0 = _univariate_candidates(lv.equations[0], lv.var_indices[0], vals, env)
                if not starts0:
                    return []
                zs, res = _newton(data, np.array(starts0, dtype=complex), iters=20)
            else:
                zs, res = _newton(data, _starts(key, self.starts, d))
        else:
            data = _FreeEqData(lv.equations, lv.var_indices, vals, env, new_syms)
            zs, res = _newton(data, _starts(key, self.starts, d + s))
        out = []
        seen = set()
        good = (
            z
            for z, r in zip(zs, res)
            if not (r > 1e-11 or any(not 1e-8 < abs(c) < 1e8 for c in z))
        )
        for z in sorted(good, key=root_key):
            key = tuple((round(c.real, 6), round(c.imag, 6)) for c in z)
            if key in seen:
                continue
            seen.add(key)
            out.append((tuple(complex(c) for c in z[:d]), tuple(complex(c) for c in z[d:])))
            if len(out) >= 16:
                break
        return out

    def _finish(self, vals, env):
        full = dict(env)
        for nm in self.lts.symbols:
            # only levels without own variables can leave a symbol unseen,
            # and those levels contribute no equations: any value works
            full.setdefault(nm, 1.0)
        return _float_certificate(self.lts, vals, full)


def _batch_first_level(searches, seed: int, starts: int) -> None:
    """Run the first level's multistart for all the searches as one batch.

    Each search gets its own slice as its root.  The first level has no
    fixed variables, so its starts (key (seed, 0)) and exponents are the
    same for every assignment; only the coefficients differ.  A level with
    one own variable takes the closed-form path and needs no batch.
    """
    lts = searches[0].lts
    lv = lts.levels[0]
    if len(lv.var_indices) < 2:
        return
    data = _EqData(lv.equations, lv.var_indices, [None] * lts.n, [s.env for s in searches])
    ys, res = _multistart(data, (seed, 0), starts)
    for k, search in enumerate(searches):
        search.root = (data.block(k), ys[k], res[k])


def solve(lts: LeadingTermSystem, seed: int = 0, starts: int = 64) -> SolvabilityVerdict:
    """Verdict for a leading term system.

    Levels are solved in energy order, each branch substituted into the
    next.  The passes, in order:

    1. Structural proof: a level that is a single monomial in its own
       variables has a derivative that never vanishes on the torus.
    2. Exact palette: free coefficients take every combination of 1, -1
       and minus each facet label, and each level is searched for +-1
       roots by Gaussian-integer parity sums.  A literal residual-0 witness
       beats any float one, and the structured models (labels all >= 2,
       Clifford-type centers) are certified that way.
    3. Numeric palette: the same assignments, then the generic complex
       table, each searched with numeric roots as well.  The first
       assignment runs alone; once it fails, the first level's multistart
       Newton of all the remaining ones runs as one batch
       (_batch_first_level).  Every assignment's block is evaluated and
       solved by the same calls as when it runs alone, so the batch changes
       no verdict and no bit of any certificate.
    4. Free search: if free coefficients remain, they are solved for
       jointly with y, catching systems whose solvability hinges on a
       coefficient relation.

    A certificate must re-verify across every level equation before it is
    believed; failure of the search is reported as unknown, never as a
    proof.
    """
    # The one structural proof: a level that is a single monomial in its own
    # variable(s).  Wider monomial patterns inside derivatives are left to the
    # search, which then reports unknown, not proven.
    for li, lv in enumerate(lts.levels):
        if not lv.var_indices:
            continue
        terms = lv.poly.terms()
        if (
            len(terms) == 1
            and _never_zero(terms[0][1].leading_coefficient())
            and any(terms[0][0][k] for k in lv.var_indices)
        ):
            return SolvabilityVerdict(
                Solvability.UnsolvableProven,
                proof=f"level {li + 1} is a single monomial; its derivative never vanishes on (C*)^n",
            )
    rows = tuple(tuple(_parity_rows(eq) for eq in lv.equations) for lv in lts.levels)
    envs = _symbol_assignments(lts)
    for env in envs:
        if not _env_is_exact(env):
            continue
        cert = _Search(lts, rows, env, seed, starts, exact_only=True).run()
        if cert is not None:
            return SolvabilityVerdict(Solvability.SolvableCertified, certificate=cert)
    searches = [_Search(lts, rows, env, seed, starts) for env in envs]
    for k, search in enumerate(searches):
        if k == 1:
            _batch_first_level(searches[1:], seed, starts)
        cert = search.run()
        if cert is not None:
            return SolvabilityVerdict(Solvability.SolvableCertified, certificate=cert)
    if lts.symbols:
        cert = _FreeSearch(lts, seed, starts).run()
        if cert is not None:
            return SolvabilityVerdict(Solvability.SolvableCertified, certificate=cert)
    return SolvabilityVerdict(Solvability.UnknownLikelyUnsolvable)
