"""Energy stratification, leading term equations, and solvability verdicts.

At a fiber point the generators (facets, plus bulk-activated sectors) sort
by energy; the adapted lattice basis turns each energy level into exponent
rows, one (integer exponent, coefficient) pair per monomial, whose
own-variable derivatives make up the leading term system.  The solver reads
those rows and nothing else; Laurent polynomials are built from them only
to print a system.  Solvability of the system over (C*)^n certifies the
fiber.

Everything up to the verdict is exact.  The one exact certifier is the
linear pass at +-1 points, whose certificates have residual 0; the numeric
search only ever produces SolvableCertified (re-verified residuals) or
gives up.  Proven unsolvability comes from the single structural special
case, a level that is one monomial (one row), whose derivative is again a
monomial and therefore never zero on the torus.  Between the linear pass
and the numeric palette, a level with a coloop in its own exponents (a
lone row outside the span of the others) ends the solve without a search:
such a system has no torus root, but its verdict stays unknown, with no
proof text, until the benchmark gate accepts a proof that cites a level
which is not a single monomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .errors import SpanNeverFull
from .lattice import column_hermite, rank_rational, row_reduce
from .potential import BulkParam, _EqData, _newton, companion_roots, far_apart, sector_terms
from .series import QC, LaurentPoly, NovikovScalar, SymLin, c_mul, c_to_complex
from .stacky import StackyModel, enumerate_box


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
    exponents: tuple  # per level, each member's direction in the adapted basis


def stratify(m: StackyModel, u, bp: BulkParam | None = None) -> EnergyStratification:
    """Sort generators by energy at u and cut at the first full-span level.

    Facet j sits at energy ell_j(u); an activated sector at
    ell_nu(u) + lambda_nu.  Bulk exponents must be concrete rationals
    (scenario machinery never calls this).  Bulk rows of one sector at one
    energy are one member whose coefficient is their sum, and a zero sum is
    no member: it neither spans nor cuts (potential.sector_terms).  Levels
    that add no span dimension still appear: their members are part of the
    partition below the cut, they just own no variables.
    """
    m.require_interior(u)
    uu = tuple(Fraction(x) for x in u)
    bp = bp or BulkParam.zero()
    box = enumerate_box(m)
    entries = []
    for j, f in enumerate(m.facets):
        entries.append((m.ell(j, uu), ("facet", j), f.stacky_vector, QC.of(1)))
    entries.extend((en, ("sector", i), box[i].nu, c) for i, en, c in sector_terms(m, uu, bp))

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
    return EnergyStratification(m, uu, tuple(levels), *_adapted_basis(levels, m.dim))


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


def _adapted_basis(levels, n: int) -> tuple:
    """The adapted basis of the levels and each level's exponents in it.

    One column_hermite pass over the directions stacked level by level:
    its W is the basis, whose first span_dim rows are a Z-basis of each
    stage's span met with Z^n, and its H holds the members' exponents.
    """
    h, w, _ = column_hermite([d for lv in levels for d in lv.directions], n)
    rows = iter(map(tuple, h))
    exponents = tuple(tuple(itertools.islice(rows, len(lv.directions))) for lv in levels)
    return tuple(map(tuple, w)), exponents


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
    return EnergyStratification(m, None, levels, *_adapted_basis(levels, m.dim))


def _laurent(n: int, terms) -> LaurentPoly:
    return LaurentPoly(n, tuple((e, NovikovScalar.of(c)) for e, c in terms))


@dataclass(frozen=True)
class LtsLevel:
    """One T-free level in adapted coordinates, as sorted (exponent, coefficient) rows.

    The solver reads ``rows`` and ``terms``; ``poly`` and ``equations`` are
    Laurent polynomial views of them, built on first use, for printing.
    """

    energy: Fraction | None
    rows: tuple
    var_indices: tuple  # adapted coordinates owned by this level
    n: int  # ambient dimension

    @cached_property
    def terms(self) -> tuple:
        """Per owned i, d/dy_i as terms (a - e_i, c * a_i), one per row (a, c) with a_i != 0."""
        return tuple(
            tuple((a[:i] + (a[i] - 1,) + a[i + 1 :], c_mul(c, a[i])) for a, c in self.rows if a[i])
            for i in self.var_indices
        )

    @cached_property
    def poly(self) -> LaurentPoly:
        return _laurent(self.n, self.rows)

    @cached_property
    def equations(self) -> tuple:
        return tuple(_laurent(self.n, eq) for eq in self.terms)


@dataclass(frozen=True)
class LeadingTermSystem:
    n: int
    basis: tuple  # adapted basis rows
    levels: tuple  # LtsLevel
    symbols: tuple  # free coefficient names, sorted
    labels: tuple  # facet labels, for the special coefficient palette


def build_lts(strat: EnergyStratification) -> LeadingTermSystem:
    """Each level's exponent rows in adapted coordinates, with the coordinates it owns.

    A member's exponent is its integer direction in the adapted basis
    (strat.exponents), so each member is one row: distinct members have
    distinct directions, and the change of basis is injective.  Level l
    may only involve coordinates of levels <= l; that drop-out is what the
    adapted basis buys and it is asserted here.  The change of basis is
    unimodular, so the rewrite is a bijection on (C*)^n and solvability is
    unaffected.
    """
    n = strat.model.dim
    names = set()
    out = []
    for lv, exponents in zip(strat.levels, strat.exponents):
        for coeff in lv.coeffs:
            if isinstance(coeff, SymLin):
                names.update(name for name, _ in coeff.lin)
        rows = tuple(sorted(zip(exponents, lv.coeffs)))
        if any(e[k] for e, _ in rows for k in range(lv.span_dim, n)):
            raise AssertionError("adapted rewrite leaked a later-level variable")
        out.append(LtsLevel(lv.energy, rows, tuple(range(lv.span_dim - lv.d, lv.span_dim)), n))
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


def lts_signature(lts: LeadingTermSystem) -> tuple:
    """(key, symbols) of a system: systems with equal keys get equal verdicts.

    The key is read off each level's rows and owned coordinates.  Symbols
    are renamed by first appearance, level by level, row by row and in
    name order within a coefficient, and ``symbols`` lists the original
    names in that order, so two systems with one key correspond symbol by
    symbol through them.  A Gaussian rational coefficient enters as (re,
    im), a symbolic one as (re, im, ((index, re, im), ...)).
    """
    names: dict = {}
    key = []
    for lv in lts.levels:
        terms = []
        for e, c in lv.rows:
            if isinstance(c, QC):
                terms.append((e, c.re, c.im))
            else:
                lin = tuple((names.setdefault(name, len(names)), q.re, q.im) for name, q in c.lin)
                terms.append((e, c.const.re, c.const.im, lin))
        key.append((tuple(terms), lv.var_indices))
    return tuple(key), tuple(names)


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


def _has_coloop(lv: LtsLevel) -> bool:
    """Whether a level has a coloop in its own variables, so no root on the torus.

    The rows are grouped by their exponent in the level's own variables,
    the zero exponent dropped.  A group of one row whose coefficient is
    never zero is a coloop when its exponent b leaves the rational span of
    the other groups' exponents.  A functional that is 1 at b and 0 on
    that span, applied to the equations y_i d/dy_i, leaves that row's
    weight c y^a = 0, which no torus point meets.  A group of several rows
    is no coloop: their summed weight can vanish at some lower root.
    """
    groups: dict = {}
    for a, c in lv.rows:
        own = tuple(a[k] for k in lv.var_indices)
        if any(own):
            groups.setdefault(own, []).append(c)
    full = rank_rational(list(groups))
    return any(
        len(cs) == 1 and _never_zero(cs[0]) and rank_rational([b for b in groups if b != a]) < full
        for a, cs in groups.items()
    )


# the numeric palette tries at most this many combinations of its special values
PALETTE_LIMIT = 64


def _symbol_assignments(lts: LeadingTermSystem) -> list:
    names = lts.symbols
    if not names:
        return [{}]
    special = [QC.of(1), QC.of(-1)]
    for c in sorted(set(lts.labels)):
        q = QC.of(-c)
        if q not in special:
            special.append(q)
    combos = itertools.product(special, repeat=len(names))
    out = [dict(zip(names, combo)) for combo in itertools.islice(combos, PALETTE_LIMIT)]
    for k in range(16):
        out.append(
            {nm: GENERIC_COEFFS[(k + 3 * idx) % 16] for idx, nm in enumerate(names)}
        )
    return out


# Exact kernel of the linear pass.  Its candidates have every coordinate +-1,
# so a level equation at a sign pattern is a signed sum of its coefficients:
# only exponent parities matter.  Equations are compiled once per solve into
# integer rows over a positive common denominator (which does not move the
# zero set); Gaussian integers are (re, im) pairs of ints.


def _common_denominator(values) -> int:
    """Least positive common denominator of Gaussian rationals."""
    return lcm(*(x.denominator for v in values for x in (v.re, v.im)))


def _gaussian_int(v: QC, den: int) -> tuple:
    """den * v as (re, im) ints; den must be a common denominator of v."""
    return (v.re.numerator * (den // v.re.denominator), v.im.numerator * (den // v.im.denominator))


def _parity_rows(eq) -> tuple:
    """One level equation's terms as rows (exponent parity mask, const, symbol coefficients).

    Bit k of the mask is the parity of the exponent of y_k; ``const`` is a
    Gaussian integer and the symbol coefficients are (name, Gaussian integer)
    pairs, all scaled by one positive common denominator.
    """
    terms = []
    for e, c in eq:
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
    """Bit k set where coordinate k of a +-1 point is -1."""
    return sum(1 << k for k, v in enumerate(coords) if v == -1)


def _level_data(equations, own, vals, env) -> _EqData:
    """Numeric view of one level's equation terms under a symbol assignment.

    The unknowns are the level's own coordinates; the fixed ones (vals) are
    folded into the coefficients.  Its residual is _EqData's scaled
    |y_r * eq_r|, the measure the certificate check uses.
    """
    exps, coeffs = [], []
    for eq in equations:
        coeffs.append(np.array([_term_value(e, c, vals, env) for e, c in eq], dtype=complex))
        exps.append(np.array([[e[i] for i in own] for e, _ in eq], dtype=float))
    return _EqData(exps, coeffs)


def _term_value(e, c, vals, env) -> complex:
    """A term's complex coefficient times the value of its fixed-variable part."""
    c = c_to_complex(c, env)
    for k, val in enumerate(vals):
        if val is not None and e[k]:
            c *= complex(val) ** e[k]
    return c


def _starts(key, count: int, width: int):
    """Seeded multistart points: moduli uniform in [0.3, 1.8], phases uniform."""
    rng = np.random.default_rng(key)
    radii = rng.uniform(0.3, 1.8, size=(count, width))
    angles = rng.uniform(0.0, 2 * np.pi, size=(count, width))
    return radii * np.exp(1j * angles)


# seeded starts of one multistart Newton
MULTISTARTS = 64


def _distinct_roots(ys, res, tol=1e-12):
    """The converged points of a multistart, sorted by root_key, less their near repeats.

    A point is converged unless its residual exceeds tol, so a NaN residual
    passes.  The keys are np.round of the coordinates, which is root_key on
    numpy scalars; Python's stable sort orders them, a NaN among them
    included, and far_apart keeps each point more than 1e-6 from those
    kept before it.
    """
    ys = ys[~(res > tol)]
    keys = np.round(np.stack((ys.real, ys.imag), axis=2), 9).reshape(len(ys), 2 * ys.shape[1])
    ys = ys[sorted(range(len(ys)), key=keys.tolist().__getitem__)]
    return [tuple(ys[i].tolist()) for i in far_apart(ys)]


def _univariate_candidates(eq, own_i, vals, env):
    """Complete root set of a one-variable level via closed form or companion."""
    bucket: dict = {}
    for e, c in eq:
        bucket[e[own_i]] = bucket.get(e[own_i], 0j) + _term_value(e, c, vals, env)
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
    lo, hi = ks[0], ks[-1]
    return [(r,) for r in companion_roots({k: c for k, c in bucket.items() if lo <= k <= hi})]


class _Search:
    """One numeric solve attempt under a fixed symbol assignment."""

    def __init__(self, lts, env, seed):
        self.lts = lts
        self.env = env
        self.seed = seed
        self.calls = 0

    def run(self):
        return self._level(0, [None] * self.lts.n)

    def _level(self, li, vals):
        if li == len(self.lts.levels):
            return _float_certificate(self.lts, vals, self.env)
        lv = self.lts.levels[li]
        if not lv.var_indices:
            return self._level(li + 1, vals)
        for cand in self._candidates(li, vals):
            for i, idx in enumerate(lv.var_indices):
                vals[idx] = cand[i]
            hit = self._level(li + 1, vals)
            if hit:
                return hit
            for idx in lv.var_indices:
                vals[idx] = None
        return None

    def _candidates(self, li, vals):
        lv = self.lts.levels[li]
        d = len(lv.var_indices)
        data = _level_data(lv.terms, lv.var_indices, vals, self.env)
        if d == 1:
            numeric = _univariate_candidates(lv.terms[0], lv.var_indices[0], vals, self.env)
        else:
            ys, res, _ = _newton(data, _starts((self.seed, self.calls), MULTISTARTS, d))
            self.calls += 1
            numeric = _distinct_roots(ys, res)
        out = []
        seen = set()
        if numeric:
            ys, res, _ = _newton(data, np.array(numeric, dtype=complex), iters=20)
            for y, r in zip(ys, res):
                # magnitude window rejects drift toward 0 or infinity, where
                # scaled residuals of monomial-heavy equations go quiet
                if r > 1e-11 or any(not 1e-8 < abs(c) < 1e8 for c in y):
                    continue
                key = tuple((round(c.real, 6), round(c.imag, 6)) for c in y)
                if key not in seen:
                    seen.add(key)
                    out.append(tuple(complex(c) for c in y))
        return out[:16]


def _evaluate(eq, y, env) -> complex:
    """The value of an equation's terms at y, summed as LaurentPoly.eval_complex does."""
    total = 0j
    for e, c in eq:
        mono = 1 + 0j
        for z, k in zip(y, e):
            mono *= z**k
        total += c_to_complex(c, env) * mono
    return total


def _float_certificate(lts, vals, env) -> Certificate | None:
    """Float certificate of the point vals under env, or None.

    The point must lie in the magnitude window, every scaled residual
    |y_i * eq_i(y)| must stay below 1e-10, and each y_i * eq_i(y) must be
    small against its own terms t: |sum t| <= 1e-8 * sum |t|.  The scale-free
    test rejects "roots" drifted toward 0 or infinity, where the scaled
    residual of an equation goes quiet with all of its terms.
    """
    y = tuple(complex(v) for v in vals)
    if any(not 1e-8 < abs(c) < 1e8 for c in y):
        return None
    worst = 0.0
    for lv in lts.levels:
        for i, eq in zip(lv.var_indices, lv.terms):
            worst = max(worst, abs(y[i] * _evaluate(eq, y, env)))
            terms = [y[i] * _term_value(e, c, y, env) for e, c in eq]
            if abs(sum(terms)) > 1e-8 * sum(map(abs, terms)):
                return None
    if worst >= 1e-10:
        return None
    sym = tuple(
        (nm, env[nm].to_complex() if isinstance(env[nm], QC) else complex(env[nm]))
        for nm in lts.symbols
    )
    return Certificate(sym, y, worst, False)


def _linear_certificate(lts: LeadingTermSystem, rows) -> Certificate | None:
    """Exact certificate at a +-1 point with the symbols solved for, or None.

    ``rows`` are the _parity_rows of every level's equation terms.  With y
    fixed in {+-1}^n each equation is linear in the symbols: a row (mask, const,
    symbol coefficients) enters with the sign of the parity of mask & bits,
    its constant on the right-hand side.  The symbols take real values, so
    an equation gives its real row and, when that is nonzero, its imaginary
    row.  Sign patterns are tried in product order, and one whose system
    row_reduce leaves inconsistent is skipped; without symbols that is
    every pattern at which some equation does not vanish.  The free
    parameters of a consistent system are set to t_j = k^(j+1) for
    k = 0, 1, ..., S * f (S symbols, f free parameters), and the first k
    that makes every symbol nonzero is taken: a symbol that is not
    identically zero on the solution space is a nonzero polynomial of degree
    <= f in k, so at most S * f values of k fail.  The point is re-verified
    by parity sums.
    """
    eqs = [eq for level in rows for eq in level]
    names = lts.symbols
    s = len(names)
    col = {name: j for j, name in enumerate(names)}
    for combo in itertools.product((1, -1), repeat=lts.n):
        bits = _sign_bits(combo)
        system = []
        for eq in eqs:
            parts = ([0] * (s + 1), [0] * (s + 1))  # real and imaginary row
            for mask, const, lin in eq:
                sign = -1 if (mask & bits).bit_count() & 1 else 1
                for part, row in enumerate(parts):
                    row[s] -= sign * const[part]
                    for name, q in lin:
                        row[col[name]] += sign * q[part]
            system.append(parts[0])
            if any(parts[1]):
                system.append(parts[1])
        reduced, pivots, rest = row_reduce(system, s)
        if any(row[s] for row in rest):
            continue
        free = [j for j in range(s) if j not in pivots]
        for k in range(s * len(free) + 1):
            values = [Fraction(0)] * s
            for i, j in enumerate(free):
                values[j] = Fraction(k ** (i + 1))
            for row, p in zip(reduced, pivots):
                values[p] = row[s] - sum(row[j] * values[j] for j in free)
            if all(values):
                break
        else:
            continue
        env = {name: QC(v) for name, v in zip(names, values)}
        den, at = _integer_env(env)
        if all(_vanishes(_parity_table(eq, den, at), bits) for eq in eqs):
            return Certificate(
                tuple((name, env[name].to_complex()) for name in names),
                tuple(complex(c) for c in combo),
                0.0,
                True,
            )
    return None


def solve(lts: LeadingTermSystem, seed: int = 0) -> SolvabilityVerdict:
    """Verdict for a leading term system.

    The passes, in order, stop at the first verdict:

    1. Structural proof: a level that is a single monomial in its own
       variables has a derivative that never vanishes on the torus.
    2. Linear pass: at each y in {+-1}^n the equations are linear in the
       free coefficients, and an exact solve over Q with every coefficient
       real and nonzero gives a residual-0 certificate
       (_linear_certificate).  A system without free coefficients is
       checked at the same points.
    3. Coloop short-circuit: a level with a coloop in its own exponents
       (_has_coloop) has no torus root, so no search is run and the
       verdict is unknown, with no proof text.
    4. Numeric palette: free coefficients take every combination of 1, -1
       and minus each facet label, then the generic complex table, and the
       levels are solved in energy order, each branch substituted into the
       next, by seeded multistart Newton and univariate roots.  The
       assignments run one at a time, in that order, until one certifies.

    A certificate must re-verify across every level equation before it is
    believed; failure of the search is reported as unknown, never as a
    proof.
    """
    # The one structural proof: a level that is a single monomial in its own
    # variable(s).  Wider coloop patterns wait for _has_coloop after the
    # linear pass, which reports them unknown, not proven.
    for li, lv in enumerate(lts.levels):
        if (
            len(lv.rows) == 1
            and _never_zero(lv.rows[0][1])
            and any(lv.rows[0][0][k] for k in lv.var_indices)
        ):
            return SolvabilityVerdict(
                Solvability.UnsolvableProven,
                proof=f"level {li + 1} is a single monomial; its derivative never vanishes on (C*)^n",
            )
    rows = tuple(tuple(_parity_rows(eq) for eq in lv.terms) for lv in lts.levels)
    cert = _linear_certificate(lts, rows)
    if cert is not None:
        return SolvabilityVerdict(Solvability.SolvableCertified, certificate=cert)
    if any(_has_coloop(lv) for lv in lts.levels):
        return SolvabilityVerdict(Solvability.UnknownLikelyUnsolvable)
    for env in _symbol_assignments(lts):
        cert = _Search(lts, env, seed).run()
        if cert is not None:
            return SolvabilityVerdict(Solvability.SolvableCertified, certificate=cert)
    return SolvabilityVerdict(Solvability.UnknownLikelyUnsolvable)
