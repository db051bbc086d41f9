"""Energy stratification, leading term equations, and solvability verdicts.

At a fiber point the generators (facets, plus bulk-activated sectors) sort
by energy; the adapted lattice basis turns each energy level into exponent
rows, one (integer exponent, coefficient) pair per monomial, whose
own-variable derivatives make up the leading term system.  The solver reads
those rows and nothing else; Laurent polynomials are built from them only
to print a system.  Solvability of the system over (C*)^n certifies the
fiber.

Everything up to the verdict is exact.  The one exact certifier is the
linear pass at rational grid points (+-1, and with free symbols also +-l
and +-1/l over the facet labels l), whose certificates have residual 0 and
are checked in integers on the rows the pass solved; the numeric search only
ever produces SolvableCertified (re-verified residuals) or gives up.  A
level's structure is W, the relations among its rows' own exponents
(LtsLevel.relations).  A circuit, d + 1 rows with dim W = 1, has its roots
in closed form.  A coloop, a never-zero row that every relation gives
weight 0 (_has_coloop), means no torus root.  On a level of one row, a
single monomial, that is a proof, run before the linear pass.  On the other
levels it runs between the linear pass and the numeric palette and ends the
solve without a search, but the verdict stays unknown, with no proof text,
until the benchmark gate accepts a proof that cites a level which is not a
single monomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import add, mul, sub

from .errors import SpanNeverFull
from .lattice import back_substitute, cleared, column_hermite, echelon, kernel, transpose
from .potential import (
    BulkParam, _EqData, _newton, binomial_roots, bulk_leading_potential, companion_roots, far_apart,
    random_starts,
)
from .series import QC, LaurentPoly, evaluate
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
    levels: tuple  # StratumLevel, lowest energy first, cut at full span
    adapted_basis: tuple  # rows; prefix of length span_dim spans each stage
    exponents: tuple  # per level, each member's direction in the adapted basis


def stratify(m: StackyModel, u, bp: BulkParam | None = None) -> EnergyStratification:
    """Group the terms of the leading-order potential at u by energy and cut at full span.

    A level is the terms of bulk_leading_potential(m, u, bp) at one
    T-exponent, lowest first: member tag (kind, index), direction its
    y-exponent and coefficient its coefficient, sorted by tag.  Bulk rows
    of one sector at one energy are therefore one member, and a zero sum is
    no member: it neither spans nor cuts.  Bulk exponents must be concrete
    rationals (scenario machinery never calls this).  Levels that add no
    span dimension still appear: their members are part of the partition
    below the cut, they just own no variables.
    """
    pot = bulk_leading_potential(m, u, bp or BulkParam.zero())
    by_energy: dict = {}
    for t in pot.terms:
        by_energy.setdefault(t.t_exponent, []).append(((t.kind, t.index), t.exponent, t.coeff))

    groups = [(en, sorted(by_energy[en], key=lambda g: g[0])) for en in sorted(by_energy)]
    strat = _stratification(m, groups)
    full = next((l for l, lv in enumerate(strat.levels) if lv.span_dim == m.dim), None)
    if full is None:
        raise SpanNeverFull("finite-energy generators never span; model is inconsistent")
    return replace(strat, levels=strat.levels[: full + 1], exponents=strat.exponents[: full + 1])


def _stratification(m: StackyModel, groups) -> EnergyStratification:
    """The levels of (energy, [(tag, direction, coeff), ...]) groups, lowest first, and their basis.

    One column_hermite pass over the directions stacked level by level:
    its W is the basis, whose first span_dim rows are a Z-basis of each
    stage's span met with Z^n, and its H holds the members' exponents.  H
    is lower echelon, so the span dimension of the rows up to a level is
    one past their last nonzero column.  Rows past full span leave W as it
    is, so cutting the levels there keeps the basis.
    """
    h, w, _ = column_hermite([g[1] for _, group in groups for g in group], m.dim)
    rows = iter(map(tuple, h))
    levels, exponents, span = [], [], 0
    for energy, group in groups:
        exps = tuple(itertools.islice(rows, len(group)))
        top = max((k + 1 for e in exps for k, x in enumerate(e) if x), default=0)
        prev, span = span, max(span, top)
        levels.append(
            StratumLevel(
                energy, tuple(g[0] for g in group), tuple(g[1] for g in group), tuple(g[2] for g in group),
                span - prev, span,
            )
        )
        exponents.append(exps)
    return EnergyStratification(m, tuple(levels), tuple(map(tuple, w)), tuple(exponents))


def scenario_stratification(m: StackyModel, groups, coeffs) -> EnergyStratification:
    """Stratification-shaped data from an abstract level assignment.

    ``groups`` lists the member tags per level, lowest first; ``coeffs``
    maps tags to coefficients.  No energies are involved: the caller is
    responsible for the feasibility of the assignment, this only rebuilds
    the span bookkeeping so build_lts can run on it.
    """
    box = enumerate_box(m)

    def member(tag):
        kind, i = tag
        return tag, m.facets[i].stacky_vector if kind == "facet" else box[i].nu, coeffs[tag]

    strat = _stratification(m, [(None, [member(tag) for tag in group]) for group in groups])
    if not strat.levels or strat.levels[-1].span_dim != m.dim:
        raise SpanNeverFull("scenario levels do not span")
    return strat


@dataclass(frozen=True)
class LtsLevel:
    """One T-free level in adapted coordinates, as sorted (exponent, coefficient) rows.

    The solver reads ``rows``, ``terms`` and ``relations``; ``poly`` and
    ``equations``, Laurent polynomial views built on first use, print them.
    """

    energy: Fraction | None
    rows: tuple
    var_indices: tuple  # adapted coordinates owned by this level
    n: int  # ambient dimension

    @cached_property
    def terms(self) -> tuple:
        """Per owned i, d/dy_i as terms (a - e_i, c * a_i), one per row (a, c) with a_i != 0."""
        return tuple(
            tuple((a[:i] + (a[i] - 1,) + a[i + 1 :], c * a[i]) for a, c in self.rows if a[i])
            for i in self.var_indices
        )

    @cached_property
    def own(self) -> tuple:
        """Each row's exponent in the level's own coordinates."""
        return tuple(tuple(a[i] for i in self.var_indices) for a, _ in self.rows)

    @cached_property
    def relations(self) -> list:
        """A primitive integer basis of W, the relations x with sum_k x_k own_k = 0."""
        return kernel(transpose(self.own), len(self.rows))

    @cached_property
    def poly(self) -> LaurentPoly:
        return LaurentPoly(self.n, self.rows)

    @cached_property
    def equations(self) -> tuple:
        return tuple(LaurentPoly(self.n, eq) for eq in self.terms)


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
    symbol through them.  Each rational enters as its numerator and
    denominator, ints that hash faster than the Fraction: a row is keyed
    as (e, num, den, ((index, num, den), ...)), the constant part's two
    ints and then the symbol part, empty for a constant.
    """
    names: dict = {}
    key = []
    for lv in lts.levels:
        terms = []
        for e, c in lv.rows:
            lin = tuple((names.setdefault(name, len(names)), *_parts(q)) for name, q in c.lin)
            terms.append((e, *_parts(c.const), lin))
        key.append((tuple(terms), lv.var_indices))
    return tuple(key), tuple(names)


def _parts(c: QC) -> tuple:
    return c.q.numerator, c.q.denominator


def _never_zero(coeff) -> bool:
    # a nonzero constant, or a pure symbol, which ranges over C*
    if coeff.lin:
        return coeff.const.is_zero() and len(coeff.lin) == 1
    return not coeff.const.is_zero()


def _has_coloop(lv: LtsLevel) -> bool:
    """Whether a level has a coloop in its own variables, so no root on the torus.

    A row is a coloop when its coefficient is never zero and every relation
    among the own exponents (LtsLevel.relations) gives it weight 0: then,
    and only then, dropping it lowers the rank of those exponents, the rule
    of the region walk's _SpanTree.coloop_leaf.  A functional that is 1 at
    the row's own exponent b and 0 on the others' span, applied to the
    equations y_i d/dy_i, leaves that row's weight c y^a = 0, which no
    torus point meets.  A zero or shared own exponent is in a relation.
    """
    return any(_never_zero(c) and not any(w[i] for w in lv.relations) for i, (_, c) in enumerate(lv.rows))


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
    return [dict(zip(names, combo)) for combo in itertools.islice(combos, PALETTE_LIMIT)]


# Exact kernel of the linear pass.  Its candidates are rational points y,
# y_k = p_k / q_k, and a level equation times the positive prod_k
# (|p_k| q_k)^m_k, with m_k the largest |e_k| among its terms, is a sum of
# its coefficients weighted by the integers +-prod_k |p_k|^(m_k + e_k)
# q_k^(m_k - e_k).  The sign is that of y^e: the parity of e . bits, bits the
# coordinates with p_k < 0.  At a +-1 point the sign is the whole weight.
# Equations are compiled once per solve into integer rows over a positive
# common denominator; no scale moves the zero set.


def _integer_rows(eq) -> tuple:
    """One level equation's terms as rows (exponent parity mask, exponent, const, symbol coefficients).

    Bit k of the mask is the parity of the exponent of y_k; ``const`` is an
    integer and the symbol coefficients are (name, integer) pairs, all
    scaled by one positive common denominator.
    """
    den = lcm(*(v.q.denominator for _, c in eq for v in (c.const, *(q for _, q in c.lin))))
    return tuple(
        (
            sum(1 << k for k, x in enumerate(e) if x & 1),
            e,
            int(c.const.q * den),
            tuple((name, int(q.q * den)) for name, q in c.lin),
        )
        for e, c in eq
    )


def _level_data(equations, own, vals, env) -> _EqData:
    """Numeric view of one level's equation terms under a symbol assignment.

    The unknowns are the level's own coordinates; the fixed ones (vals) are
    folded into the coefficients.  Its residual is _EqData's scaled
    |y_r * eq_r|, the measure the certificate check uses.
    """
    import numpy as np

    exps, coeffs = [], []
    for eq in equations:
        coeffs.append(np.array([_term_value(e, c, vals, env) for e, c in eq], dtype=complex))
        exps.append(np.array([[e[i] for i in own] for e, _ in eq], dtype=float))
    return _EqData(exps, coeffs)


def _term_value(e, c, vals, env) -> complex:
    """A term's complex coefficient times the value of its fixed-variable part."""
    c = c.to_complex(env)
    for k, val in enumerate(vals):
        if val is not None and e[k]:
            c *= complex(val) ** e[k]
    return c


def _starts(key, count: int, width: int):
    """Seeded multistart points: moduli uniform in [0.3, 1.8], phases uniform.

    The key is seeded as its str, which PYTHONHASHSEED does not move.
    """
    import numpy as np

    return np.array(random_starts(str(key), count, width, 0.3, 1.8), dtype=complex)


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
    import numpy as np

    ys = ys[~(res > tol)]
    keys = np.round(np.stack((ys.real, ys.imag), axis=2), 9).reshape(len(ys), 2 * ys.shape[1])
    ys = ys[sorted(range(len(ys)), key=keys.tolist().__getitem__)]
    return [tuple(ys[i].tolist()) for i in far_apart(ys)]


def _univariate_candidates(eq, own_i, vals, env):
    """Complete root set of a one-variable level by companion matrix; none for a monomial."""
    bucket: dict = {}
    for e, c in eq:
        bucket[e[own_i]] = bucket.get(e[own_i], 0j) + _term_value(e, c, vals, env)
    ks = sorted(k for k, c in bucket.items() if abs(c) > 1e-13)
    if not ks:
        return []  # equation vanished numerically; nothing trustworthy to branch on
    lo, hi = ks[0], ks[-1]
    return [(r,) for r in companion_roots({k: c for k, c in bucket.items() if lo <= k <= hi})]


def _circuit_candidates(lv, vals, env):
    """Complete root set of a circuit level (d own variables, d + 1 rows, dim W = 1), or None.

    With C_k the row coefficients, fixed values folded in, and b_k the own
    exponents, the equations say sum_k x_k b_k = 0 for x_k = C_k y^b_k, so
    x = s L for the one relation L (LtsLevel.relations).  Eliminating s
    leaves y^(b_k - b_0) = L_k C_0 / (L_0 C_k), solved by binomial_roots.
    None, for the multistart, when the level is no circuit, a coefficient
    vanished or det(b_k - b_0) = 0 (the Euler case, sum L = 0); no root
    when some L_k = 0, since x_k = C_k y^b_k never vanishes.
    """
    coeffs = [_term_value(a, c, vals, env) for a, c in lv.rows]
    if len(lv.rows) != len(lv.var_indices) + 1 or len(lv.relations) != 1 or not all(coeffs):
        return None
    (rel,) = lv.relations
    if not all(rel):
        return []
    a = [tuple(x - y for x, y in zip(b, lv.own[0])) for b in lv.own[1:]]
    return binomial_roots(a, [rel[k] * coeffs[0] / (rel[0] * coeffs[k]) for k in range(1, len(rel))])


class _Search:
    """One numeric solve attempt under a fixed symbol assignment.

    A level's candidates are its complete root set where a closed form
    exists (_univariate_candidates, _circuit_candidates), else the roots of
    a seeded multistart, polished and screened alike.  Every level of two
    or more own variables advances the starts key, so each multistart draws
    the starts it drew before the closed forms.
    """

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
        import numpy as np

        lv = self.lts.levels[li]
        d = len(lv.var_indices)
        data = _level_data(lv.terms, lv.var_indices, vals, self.env)
        if d == 1:
            numeric = _univariate_candidates(lv.terms[0], lv.var_indices[0], vals, self.env)
        else:
            numeric = _circuit_candidates(lv, vals, self.env)
            if numeric is None:
                ys, res, _ = _newton(data, _starts((self.seed, self.calls), MULTISTARTS, d))
                numeric = _distinct_roots(ys, res)
            self.calls += 1
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
            worst = max(worst, abs(y[i] * evaluate(eq, y, env)))
            terms = [y[i] * _term_value(e, c, y, env) for e, c in eq]
            if abs(sum(terms)) > 1e-8 * sum(map(abs, terms)):
                return None
    if worst >= 1e-10:
        return None
    sym = tuple((nm, env[nm].to_complex()) for nm in lts.symbols)
    return Certificate(sym, y, worst, False)


def _points(lts: LeadingTermSystem):
    """The candidate points of the linear pass, as (y, scale).

    y is a tuple of ints and Fractions.  {+-1}^n comes first, in product
    order, with scale None.  Then, for a system with free symbols, the rest
    of G^n follows in product order, with scale the tuples of the
    coordinates' |numerators| and denominators.  G is +-1, then +-l and
    +-1/l for each distinct facet label l > 1, ascending: the model's own
    values, as the palette's special values are.
    """
    for y in itertools.product((1, -1), repeat=lts.n):
        yield y, None
    if lts.symbols:
        grid = [1, -1]
        for label in sorted(set(lts.labels) - {1}):
            grid += [label, -label, Fraction(1, label), Fraction(-1, label)]
        for y in itertools.product(grid, repeat=lts.n):
            if any(v not in (1, -1) for v in y):
                yield y, (tuple(abs(v.numerator) for v in y), tuple(v.denominator for v in y))


def _linear_certificate(lts: LeadingTermSystem) -> Certificate | None:
    """Exact certificate at a grid point with the symbols solved for, or None.

    Every level's equation terms are compiled once (_integer_rows).  With y
    fixed at a rational point (_points: {+-1}^n, then, when there are
    symbols, the rest of G^n for G = +-1, +-l, +-1/l over the facet labels
    l > 1) each scaled equation is linear in the symbols with integer
    coefficients: a row (mask, exponent e, const, symbol coefficients)
    enters with the sign of the parity of mask & bits, times
    prod_k |p_k|^(m_k + e_k) q_k^(m_k - e_k) off the +-1 points, its
    constant in a last column of value 1, so each equation gives one row.
    A point whose echelon leaves a nonzero constant is skipped; without
    symbols that is every point at which some equation does not vanish.
    The free parameters of a consistent system are set to
    t_j = k^(j+1) for k = 0, 1, ..., S * f (S symbols, f free parameters),
    the pivots solved (back_substitute), and the first k that makes every
    symbol nonzero is taken: a symbol that is not identically zero on the
    solution space is a nonzero polynomial of degree <= f in k, so at most
    S * f values of k fail.  The point, cleared of denominators, is checked
    in integers on every row, the rows echelon eliminated included.
    """
    eqs = [_integer_rows(eq) for lv in lts.levels for eq in lv.terms]
    names = lts.symbols
    s = len(names)
    col = {name: j for j, name in enumerate(names)}
    for y, scale in _points(lts):
        bits = sum(1 << k for k, v in enumerate(y) if v < 0)
        system = []
        for eq in eqs:
            row = [0] * (s + 1)
            if scale:
                m = [max((abs(e[k]) for _, e, _, _ in eq), default=0) for k in range(lts.n)]
            for mask, e, const, lin in eq:
                w = -1 if (mask & bits).bit_count() & 1 else 1
                if scale:
                    w *= prod(map(pow, scale[0], map(add, m, e))) * prod(map(pow, scale[1], map(sub, m, e)))
                row[s] += w * const
                for name, q in lin:
                    row[col[name]] += w * q
            system.append(row)
        reduced, pivots, rest = echelon(system, s)
        if any(row[s] for row in rest):
            continue
        free = [j for j in range(s) if j not in pivots]
        for k in range(s * len(free) + 1):
            values = [0] * s + [1]
            for i, j in enumerate(free):
                values[j] = Fraction(k ** (i + 1))
            values = back_substitute(reduced, pivots, values)[:s]
            if all(values):
                break
        else:
            continue
        point = cleared([*values, 1])
        if all(sum(map(mul, row, point)) == 0 for row in system):
            return Certificate(
                tuple((name, complex(v)) for name, v in zip(names, values)),
                tuple(complex(v) for v in y),
                0.0,
                True,
            )
    return None


def solve(lts: LeadingTermSystem, seed: int = 0) -> SolvabilityVerdict:
    """Verdict for a leading term system.

    The passes, in order, stop at the first verdict:

    1. Structural proof: a level that is a single monomial in its own
       variables (one row, a coloop by _has_coloop) has a derivative that
       never vanishes on the torus.
    2. Linear pass: at each rational point y the equations are linear in
       the free coefficients, and an exact solve over Q with every
       coefficient nonzero gives a residual-0 certificate
       (_linear_certificate).  The points are {+-1}^n in product order,
       then the rest of G^n, G = +-1 and +-l, +-1/l for each distinct
       facet label l > 1 in ascending order.  A system without free
       coefficients is checked at the {+-1}^n points only.
    3. Coloop short-circuit: a level with a coloop in its own exponents
       (_has_coloop) has no torus root, so no search is run and the
       verdict is unknown, with no proof text.
    4. Numeric palette: free coefficients take every combination of 1, -1
       and minus each facet label (at most PALETTE_LIMIT of them), and the
       levels are solved in energy order, each branch substituted into the
       next (_Search).  A level of one own variable takes its univariate
       roots, a circuit level (d own variables, d + 1 rows) its binomial
       roots in closed form, and any other level, or a circuit whose
       closed form declines, a seeded multistart Newton.  The assignments
       run one at a time, in that order, until one certifies.

    A certificate must re-verify across every level equation before it is
    believed; failure of the search is reported as unknown, never as a
    proof.
    """
    # The one structural proof: a level of one row with a coloop, that is a
    # single monomial in its own variables.  Wider coloop patterns wait for
    # _has_coloop after the linear pass, which reports them unknown, not
    # proven; running it on every level first would cost every solve.
    for li, lv in enumerate(lts.levels):
        if len(lv.rows) == 1 and _has_coloop(lv):
            return SolvabilityVerdict(
                Solvability.UnsolvableProven,
                proof=f"level {li + 1} is a single monomial; its derivative never vanishes on (C*)^n",
            )
    cert = _linear_certificate(lts)
    if cert is not None:
        return SolvabilityVerdict(Solvability.SolvableCertified, certificate=cert)
    if any(_has_coloop(lv) for lv in lts.levels):
        return SolvabilityVerdict(Solvability.UnknownLikelyUnsolvable)
    for env in _symbol_assignments(lts):
        cert = _Search(lts, env, seed).run()
        if cert is not None:
            return SolvabilityVerdict(Solvability.SolvableCertified, certificate=cert)
    return SolvabilityVerdict(Solvability.UnknownLikelyUnsolvable)
