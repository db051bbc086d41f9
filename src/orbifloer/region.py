"""Bulk-deformation scenarios and the certified non-displaceable region.

A scenario is one shape the leading part of a bulk-deformed potential can
take: an ordered partition of generators into energy levels, each level
pinned by at least one facet.  Placing sector nu at level l means giving
its bulk parameter the exponent S_l - ell_nu(u), legal exactly when that
number is positive, so every published hand-tuning of bulk exponents
becomes one linear feasibility problem in u.  The leading term system of
a scenario does not depend on u; a single solvability verdict covers the
whole feasible piece.

nondisplaceable_region glues the halves together: walk the scenarios,
keep those whose feasible region is nonempty and whose system is
certified solvable, and return the union of pieces, each remembering the
scenario that produced it.  Pieces overlap freely; certificates are
per-scenario and merging them would lose the audit trail.

Scenarios are searched, not listed: one depth-first walk over the level
digit of every facet, then every sector, meets the level assignments in
the order of their product.  The walk never enters a subtree whose span
can no longer work out (a level's cumulative rank leaving no room for the
later levels, or a level left without a facet).  The region also prunes
a prefix whose exact feasibility test already fails, once all facets are
placed, and a leaf with a coloop level: a member whose direction, modulo
the span of the levels below, no other member shares and no combination
of the others' reaches, so that the level's equations can never be
solved.  A scenario's serial is its rank among the span-valid candidates
in product order, the same with or without pruning: a skipped subtree
adds its memoized candidate count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import InputError, TooManyScenarios
from .lattice import cleared, echelon_rational, primitive, rank_rational
# lts_signature is not called here, but perfbench/spans.py traces it as bound
# in this module, so the name stays
from .ltsolver import (
    SolvabilityVerdict,
    Solvability,
    build_lts,
    exponent_rows,
    lts_signature,
    row_signature,
    scenario_stratification,
    solve,
)
from .series import QC, SymLin
from .stacky import StackyModel, enumerate_box, sector_ell_form


@dataclass(frozen=True)
class Constraint:
    """Affine condition coeffs.u + const REL 0, tagged with its origin.

    kind is one of "interior", "level", "order", "sector", "above"; only
    "interior" constraints stay strict when a region is read in closure
    mode (the limit argument never leaves the open moment polytope).
    Coefficients are integers or Fractions.  Only the sign of the value is
    ever read, so a positive multiple of a condition is the same condition:
    scenario_constraints emits integer multiples of the forms it names.
    """

    coeffs: tuple
    const: int | Fraction
    rel: str  # ">" or "=="
    kind: str
    label: str

    def value(self, u) -> Fraction:
        return sum(c * Fraction(x) for c, x in zip(self.coeffs, u)) + self.const

    def holds(self, u, closed: bool = False) -> bool:
        v = self.value(u)
        if self.rel == "==":
            return v == 0
        if closed and self.kind != "interior":
            return v >= 0
        return v > 0


def _homogeneous(u) -> tuple:
    """Integers (U_1, ..., U_n, D) with D > 0 and u = U / D.

    The sign of a condition at u is the sign of the dot product of its row
    (coeffs..., const) with this tuple.
    """
    u = [Fraction(x) for x in u]
    d = math.lcm(*(x.denominator for x in u))
    return (*(x.numerator * (d // x.denominator) for x in u), d)


def _row(c: Constraint) -> tuple:
    return (*c.coeffs, c.const)


@dataclass(frozen=True)
class Scenario:
    serial: int
    levels: tuple  # per level: tags ("facet", j) then ("sector", i), each ascending
    excluded: tuple  # sector tags with bulk switched off
    span_dims: tuple  # cumulative span dimension after each level

    @property
    def K(self) -> int:
        return len(self.levels)

    def describe(self) -> str:
        parts = []
        for l, tags in enumerate(self.levels):
            names = ",".join(f"{k}{i}" for k, i in tags)
            parts.append(f"S{l + 1}={{{names}}}")
        return " ".join(parts)


@dataclass(frozen=True)
class ScenarioPolyhedron:
    equalities: tuple  # Constraint, rel "=="
    inequalities: tuple  # Constraint, rel ">"
    witness: tuple  # Fractions, strictly feasible

    def contains(self, u, closed: bool = False) -> bool:
        return self._contains_homogeneous(_homogeneous(u), closed)

    def _contains_homogeneous(self, p: tuple, closed: bool) -> bool:
        d = p[-1]
        for c in self.equalities:
            if sum(map(mul, c.coeffs, p)) + c.const * d:
                return False
        for c in self.inequalities:
            v = sum(map(mul, c.coeffs, p)) + c.const * d
            if v < 0 or (v == 0 and not (closed and c.kind != "interior")):
                return False
        return True


@dataclass(frozen=True)
class RegionPiece:
    scenario: Scenario
    polyhedron: ScenarioPolyhedron
    verdict: SolvabilityVerdict


@dataclass(frozen=True)
class FiberRegion:
    model: StackyModel
    pieces: tuple
    closure: bool
    max_levels: int


@dataclass(frozen=True)
class QueryReport:
    u: tuple
    member: bool
    matches: tuple  # RegionPiece entries containing u
    interior: bool = True


def enumerate_scenarios(m: StackyModel, max_levels: int = 2, limit: int = 10**6) -> list:
    """All level assignments with a facet pinning every level.

    Facets may be left out (they must then end up above the last level),
    sectors may be left out (bulk zero) or placed anywhere.  Each level
    must add span dimension and the span must be full at the last level;
    assignments violating that are dropped here, feasibility in u is a
    separate question.  Levels beyond the dimension could not each add
    span, so only K <= min(max_levels, m.dim) levels are tried.

    The candidates come from the depth-first walk of _scenario_walk, in
    the order of the (K+1)^(facets+sectors) product of level digits, K
    ascending; only span-dead subtrees are skipped, so the list is that
    product filtered by span.  A serial is a candidate's rank in this
    order.  limit bounds the number of candidates: it is counted before
    any is built, and TooManyScenarios names the count.
    """
    return list(_scenario_walk(m, max_levels, limit=limit))


class _SpanTree:
    """The level digits of the K-level scenarios of one model.

    Digit p is the level of generator p, facets first and then sectors;
    0 leaves the generator out.  Walking the digits depth first, each
    taking 0..K in turn, meets the assignments in itertools.product order.
    A node's state is the tuple of cumulative level spans V_1 <= ... <= V_K
    and the bit set of levels a facet pins; a span is the id of its
    echelon basis, so equal spans are equal states.  How many span-valid
    assignments lie below a node depends on its depth and state alone, so
    the count is memoized.  The tree also holds the region walk's coloop
    test of a leaf (coloop_leaf), memoized per level; it lives as long as
    the walk, so no state outlives one region.
    """

    def __init__(self, dirs: list, nf: int, dim: int, K: int):
        self.dirs, self.nf, self.dim, self.K = dirs, nf, dim, K
        self.n = len(dirs)
        self._bases = [()]  # span id -> echelon basis; 0 is the zero space
        self._ids = {(): 0}
        self._joins: dict = {}
        self._counts: dict = {}
        self._coloops: dict = {}
        self.root = ((0,) * K, 0)

    def rank(self, span: int) -> int:
        return len(self._bases[span])

    def child(self, state, p: int, v: int):
        """The state once generator p is placed at level v."""
        if v == 0:
            return state
        spans, pins = state
        spans = spans[: v - 1] + tuple(self._join(span, p) for span in spans[v - 1 :])
        return spans, (pins | 1 << v) if p < self.nf else pins

    def _join(self, span: int, p: int) -> int:
        key = (span, p)
        out = self._joins.get(key)
        if out is None:
            basis = echelon_rational(self._bases[span] + (self.dirs[p],))
            out = self._ids.get(basis)
            if out is None:
                out = self._ids[basis] = len(self._bases)
                self._bases.append(basis)
            self._joins[key] = out
        return out

    def coloop_leaf(self, digits: list, state) -> bool:
        """Whether some level of a leaf has a coloop member (_has_coloop).

        Each member's direction is reduced modulo the echelon basis of the
        span below its level.  The answer is memoized per level on (span
        below, members).
        """
        below = 0
        for l, span in enumerate(state[0], 1):
            members = tuple(p for p, v in enumerate(digits) if v == l)
            hit = self._coloops.get((below, members))
            if hit is None:
                basis = self._bases[below]
                hit = _has_coloop([_residue(self.dirs[p], basis) for p in members])
                self._coloops[below, members] = hit
            if hit:
                return True
            below = span
        return False

    def count(self, p: int, state) -> int:
        """Number of span-valid assignments below a node of depth p."""
        key = (p, state)
        c = self._counts.get(key)
        if c is None:
            c = self._counts[key] = self._count(p, state)
        return c

    def _count(self, p: int, state) -> int:
        spans, pins = state
        K, dim = self.K, self.dim
        if pins.bit_count() + max(self.nf - p, 0) < K:
            return 0  # too few facets left to pin every level
        ranks = [0] + [self.rank(span) for span in spans]
        # ranks only grow, and each later level must still add one
        if any(ranks[l] > dim - (K - l) for l in range(1, K + 1)):
            return 0
        if p == self.n:
            return int(ranks[-1] == dim and all(a < b for a, b in zip(ranks, ranks[1:])))
        return sum(self.count(p + 1, self.child(state, p, v)) for v in range(K + 1))


def _residue(v, basis: tuple) -> tuple:
    """v reduced modulo a reduced row echelon basis: zero at every pivot column.

    Two vectors have equal residues exactly when they differ by an element
    of the span.
    """
    v = tuple(v)
    for row in basis:
        k = next(i for i, x in enumerate(row) if x)  # the pivot, which is 1
        if v[k]:
            v = tuple(a - v[k] * b for a, b in zip(v, row))
    return v


def _has_coloop(residues: list) -> bool:
    """Whether a level's residues leave one member a coloop.

    Equal residues form one group and the zero residue is dropped.  A
    one-member group is a coloop when its residue lies outside the span of
    the other groups' residues, that is when dropping it lowers the rank.
    """
    groups: dict = {}
    for r in residues:
        if any(r):
            groups[r] = groups.get(r, 0) + 1
    keys = list(groups)
    full = rank_rational(keys)
    return any(
        n == 1 and rank_rational(keys[:k] + keys[k + 1 :]) < full
        for k, n in enumerate(groups.values())
    )


def _scenario_walk(m: StackyModel, max_levels: int, grow=None, limit: int = 10**6):
    """Span-valid scenarios in product order, serials counted as ranks.

    grow(tree, digits, state, ctx) runs on every node with span-valid
    leaves below it, once its last digit is placed, with the node's
    _SpanTree state; it returns the context of the subtree, or None to
    skip it.  A skipped subtree adds its memoized candidate count to the
    serial counter without visiting its leaves.
    Raises TooManyScenarios at once when the candidates exceed limit.
    """
    if max_levels < 1:
        raise InputError(f"max_levels must be a positive integer, got {max_levels}")
    box = enumerate_box(m)
    nf = len(m.facets)
    dirs = [f.stacky_vector for f in m.facets] + [s.nu for s in box]
    trees = [_SpanTree(dirs, nf, m.dim, K) for K in range(1, min(max_levels, m.dim) + 1)]
    total = sum(t.count(0, t.root) for t in trees)
    if total > limit:
        raise TooManyScenarios(f"{total} scenario candidates, more than the limit {limit}")
    return _leaves(trees, nf, grow)


def _leaves(trees: list, nf: int, grow):
    serial = 0
    digits: list = []

    def visit(tree, p, state, ctx):
        nonlocal serial
        if p == tree.n:
            yield _scenario(serial, digits, nf, [tree.rank(span) for span in state[0]])
            serial += 1
            return
        for v in range(tree.K + 1):
            child = tree.child(state, p, v)
            c = tree.count(p + 1, child)
            if not c:
                continue
            digits.append(v)
            sub = ctx if grow is None else grow(tree, digits, child, ctx)
            if sub is None:
                serial += c
            else:
                yield from visit(tree, p + 1, child, sub)
            digits.pop()

    for tree in trees:
        yield from visit(tree, 0, tree.root, ())


def _scenario(serial: int, digits: list, nf: int, span_dims: list) -> Scenario:
    sectors = list(enumerate(digits[nf:]))
    levels = tuple(
        tuple(
            [("facet", j) for j in range(nf) if digits[j] == l]
            + [("sector", i) for i, v in sectors if v == l]
        )
        for l in range(1, len(span_dims) + 1)
    )
    excluded = tuple(("sector", i) for i, v in sectors if v == 0)
    return Scenario(serial, levels, excluded, tuple(span_dims))


@lru_cache(maxsize=None)
def _model_rows(m: StackyModel) -> tuple:
    """Integer rows (gradient..., constant) of every ell_j, then every ell_nu.

    All forms are scaled by one positive common denominator, so the row
    difference of two forms is a positive multiple of their difference.
    """
    forms = [m.ell_form(j) for j in range(len(m.facets))]
    forms += [sector_ell_form(m, b) for b in enumerate_box(m)]
    d = math.lcm(*(Fraction(c).denominator for _, c in forms))
    rows = tuple((*(x * d for x in g), int(c * d)) for g, c in forms)
    return rows[: len(m.facets)], rows[len(m.facets) :]


def _difference(a: tuple, b: tuple, rel: str, kind: str, label: str) -> Constraint:
    row = [x - y for x, y in zip(a, b)]
    return Constraint(tuple(row[:-1]), row[-1], rel, kind, label)


def scenario_constraints(m: StackyModel, s: Scenario) -> list:
    """The scenario's defining conditions on u, each tagged with its origin.

    Each condition is an integer multiple of the form difference it names.
    """
    facet, sector = _model_rows(m)
    box = enumerate_box(m)
    cons = [
        Constraint(row[:-1], row[-1], ">", "interior", f"ell_{j} > 0")
        for j, row in enumerate(facet)
    ]
    anchors = []
    for l, tags in enumerate(s.levels):
        facets = [i for k, i in tags if k == "facet"]
        a = facets[0]
        anchors.append(a)
        for j in facets[1:]:
            cons.append(_difference(facet[a], facet[j], "==", "level", f"ell_{a} = ell_{j}"))
        for k, i in tags:
            if k == "sector":
                label = f"ell_nu{box[i].nu} < S{l + 1}"
                cons.append(_difference(facet[a], sector[i], ">", "sector", label))
    for l in range(len(anchors) - 1):
        cons.append(
            _difference(
                facet[anchors[l + 1]], facet[anchors[l]], ">", "order", f"S{l + 2} > S{l + 1}"
            )
        )
    assigned = {i for tags in s.levels for k, i in tags if k == "facet"}
    top = facet[anchors[-1]]
    for j in range(len(m.facets)):
        if j not in assigned:
            cons.append(_difference(facet[j], top, ">", "above", f"ell_{j} > S{s.K}"))
    return cons


def _substitute(vec: list, subs: list) -> list:
    """Eliminate the pivot columns of subs from an integer row, fraction-free.

    Each pivot row has a positive pivot p, and vec <- p*vec - vec[k]*row
    multiplies the condition by p > 0, so strict rows keep their meaning.
    """
    for k, row in subs:
        c = vec[k]
        if c:
            p = row[k]
            vec = [p * x - c * y for x, y in zip(vec, row)]
    return primitive(vec)


def _fm_witness(rows, free):
    """Fourier-Motzkin with witness reconstruction over integer rows.

    Every row is strict (row[:-1].u + row[-1] > 0) and only involves the
    variables in free; strictness survives the pairwise combinations, so a
    feasible system always has interior points and the midpoint
    reconstruction below is safe.  Only the binding row per primitive
    direction is kept: FM cost is quadratic in the row count, duplicates
    are common here, and a dominated row never moves a bound.  Bounds are
    ratios, unchanged by positive row scalings.  Returns a dict
    var -> Fraction or None.
    """
    best: dict = {}
    for row in rows:
        g = math.gcd(*row[:-1])
        if g == 0:
            if row[-1] <= 0:
                return None
            continue
        key = tuple(x // g for x in row[:-1])
        kept = best.get(key)
        if kept is None or row[-1] * kept[0] < kept[1][-1] * g:
            best[key] = (g, row)
    if not free:
        return {}
    k = free[-1]
    lowers, uppers, rest = [], [], []
    for _, row in best.values():
        a = row[k]
        (rest if a == 0 else lowers if a > 0 else uppers).append(row)
    for lo in lowers:
        for up in uppers:
            al, au = lo[k], -up[k]
            rest.append(primitive([au * x + al * y for x, y in zip(lo, up)]))
    sol = _fm_witness(rest, free[:-1])
    if sol is None:
        return None

    def bound(row):
        residue = row[-1] + sum(row[j] * v for j, v in sol.items() if row[j])
        return Fraction(-residue, row[k])

    lo = max(map(bound, lowers), default=None)
    hi = min(map(bound, uppers), default=None)
    if lo is not None and hi is not None:
        sol[k] = (lo + hi) / 2
    elif lo is not None:
        sol[k] = lo + 1
    elif hi is not None:
        sol[k] = hi - 1
    else:
        sol[k] = Fraction(0)
    return sol


def _witness(eqs, ineqs, n):
    """Witness of integer rows: eqs == 0 and ineqs > 0, or None."""
    subs: list = []  # (pivot, row) with row[pivot] > 0, in creation order
    for row in eqs:
        row = _substitute(row, subs)
        pivot = next((k for k in range(n) if row[k]), None)
        if pivot is None:
            if row[n]:
                return None
            continue
        if row[pivot] < 0:
            row = [-x for x in row]
        subs.append((pivot, row))
    pivots = {p for p, _ in subs}
    sol = _fm_witness(
        [_substitute(row, subs) for row in ineqs], [k for k in range(n) if k not in pivots]
    )
    if sol is None:
        return None
    for pivot, row in reversed(subs):
        rest = row[n] + sum(row[j] * sol[j] for j in range(n) if j != pivot and row[j])
        sol[pivot] = Fraction(-rest, row[pivot])
    return tuple(sol[k] for k in range(n))


def feasible_witness(cons, n):
    """Exact feasibility of a mixed equality/strict system; witness or None.

    Rows are cleared of denominators and solved over the integers; only the
    witness coordinates are Fractions.
    """
    return _witness(
        [cleared(_row(c)) for c in cons if c.rel == "=="],
        [cleared(_row(c)) for c in cons if c.rel != "=="],
        n,
    )


def scenario_region(m: StackyModel, s: Scenario) -> ScenarioPolyhedron | None:
    """Feasible u-set of a scenario, or None when empty."""
    cons = scenario_constraints(m, s)
    eqs = tuple(c for c in cons if c.rel == "==")
    ineqs = tuple(c for c in cons if c.rel == ">")
    # scenario_constraints rows are integers already
    w = _witness(list(map(_row, eqs)), list(map(_row, ineqs)), m.dim)
    if w is None:
        return None
    poly = ScenarioPolyhedron(eqs, ineqs, w)
    assert poly.contains(w), "witness must satisfy its own system"
    return poly


@lru_cache(maxsize=None)
def _tag_coeff(tag: tuple):
    """The coefficient of a tag in a scenario system.

    Facet terms carry coefficient 1; each sector gets its own free symbol,
    named by box index, stable across scenarios so structurally equal
    systems share a signature.
    """
    kind, i = tag
    return QC.of(1) if kind == "facet" else SymLin.symbol(f"c{i}")


def scenario_rows(m: StackyModel, s: Scenario) -> tuple:
    """The stratification of a scenario and its exponent rows.

    The level ranks are the scenario's span_dims, or computed when it has
    none.  Returns (stratification, exponent_rows of it).
    """
    coeffs = {tag: _tag_coeff(tag) for tags in s.levels for tag in tags}
    strat = scenario_stratification(m, s.levels, coeffs, s.span_dims)
    return strat, exponent_rows(strat)


def scenario_lts(m: StackyModel, s: Scenario, rows=None):
    """The u-independent leading term system of a scenario.

    ``rows``, the scenario_rows of s, is computed when not given.
    """
    return build_lts(*(rows or scenario_rows(m, s)))


def nondisplaceable_region(
    m: StackyModel,
    max_levels: int = 2,
    closure: bool = True,
    seed: int = 0,
    starts: int = 64,
) -> FiberRegion:
    """Union of feasible scenario pieces whose systems are certified.

    The scenario walk skips every candidate that cannot become a piece
    before any work on it: prefixes that are already infeasible and leaves
    with a coloop level, whose system provably has no root
    (_piece_candidates).  Serials stay the ranks enumerate_scenarios
    gives.  Verdicts are cached by structural signature: scenarios
    producing the same level polynomials up to symbol renaming share one
    solve, and a shared certificate is renamed into each scenario's own
    symbols.  The signature is read off the integer exponent rows of each
    level (scenario_rows, row_signature), so a leading term system, with
    its Laurent polynomials, is built only for a signature not seen yet.
    """
    pieces = []
    cache: dict = {}
    for s in _scenario_walk(m, max_levels, _piece_candidates(m)):
        poly = scenario_region(m, s)
        if poly is None:
            continue
        strat, rows = scenario_rows(m, s)
        sig, names = row_signature(rows)
        hit = cache.get(sig)
        if hit is None:
            verdict = solve(scenario_lts(m, s, (strat, rows)), seed=seed, starts=starts)
            cache[sig] = (verdict, names)
        else:
            verdict = _renamed(*hit, names)
        if verdict.status is Solvability.SolvableCertified:
            pieces.append(RegionPiece(s, poly, verdict))
    return FiberRegion(m, tuple(pieces), closure, max_levels)


def _piece_candidates(m: StackyModel):
    """The walk's grow hook for nondisplaceable_region.

    A prefix is tested once every facet digit is set, so the facet
    conditions are complete; from there each sector placed at a level
    adds the one strict row ell_anchor - ell_nu, so an infeasible prefix
    stays infeasible in every completion.  The test is exact integer FM
    on the rows scenario_constraints emits; a child whose new row is
    positive at its parent's witness is feasible without one.

    A leaf is first checked for a coloop level (_SpanTree.coloop_leaf): a
    member whose direction, modulo the span of the levels below, is shared
    by no other member and lies outside the span of the other members'
    residues.  The level's own-coordinate equations are
    sum_a c_a a_i y^a = 0 over the members' residues a, so a root needs a
    linear relation sum_a w_a a = 0 in which members of equal residue
    share one weight; a lone member's weight c_a y^a is never zero (every
    region coefficient is 1 or a pure symbol), and a coloop forces it to
    zero.  Such a leaf has no root (the leading-term argument of
    Fukaya-Oh-Ohta-Ono for toric manifolds), and it is skipped before
    scenario_region, scenario_lts and solve.  A level with one member is
    the special case of a single group.  The context of a feasible
    prefix is its (equality rows, strict rows, level anchors, witness).
    """
    facet, sector = _model_rows(m)
    nf, n = len(facet), len(facet) + len(sector)

    def grow(tree, digits, state, ctx):
        p = len(digits)
        if p < nf:
            return ctx
        if p == n and tree.coloop_leaf(digits, state):
            return None
        if p == nf:
            K = tree.K
            levels = tuple(
                tuple(("facet", j) for j in range(nf) if digits[j] == l) for l in range(1, K + 1)
            )
            cons = scenario_constraints(m, Scenario(-1, levels, (), ()))
            eqs = [_row(c) for c in cons if c.rel == "=="]
            ineqs = [_row(c) for c in cons if c.rel == ">"]
            anchors = [tags[0][1] for tags in levels]
            w = _witness(eqs, ineqs, m.dim)
        elif digits[-1] == 0:
            return ctx  # a sector left out adds no condition
        else:
            eqs, ineqs, anchors, w = ctx
            row = [a - b for a, b in zip(facet[anchors[digits[-1] - 1]], sector[p - 1 - nf])]
            ineqs = ineqs + [row]
            if sum(map(mul, row, w)) + row[-1] <= 0:
                w = _witness(eqs, ineqs, m.dim)
        if w is None:
            return None
        return eqs, ineqs, anchors, w

    return grow


def _renamed(verdict: SolvabilityVerdict, solved: tuple, own: tuple) -> SolvabilityVerdict:
    """A cached verdict with its symbols renamed from solved to own.

    Both are signature_symbols of systems with one signature, which match
    the two systems symbol by symbol.
    """
    cert = verdict.certificate
    if cert is None or solved == own:
        return verdict
    names = dict(zip(solved, own))
    values = tuple(sorted((names[name], z) for name, z in cert.symbol_values))
    return replace(verdict, certificate=replace(cert, symbol_values=values))


def query_point(r: FiberRegion, u) -> QueryReport:
    """Membership report for a rational point.

    Points outside the open moment polytope carry no torus fiber, so they
    are reported as non-members rather than rejected.
    """
    uu = tuple(Fraction(x) for x in u)
    if not r.model.is_interior(uu):
        return QueryReport(uu, False, (), interior=False)
    hu = _homogeneous(uu)
    matches = tuple(
        p for p in r.pieces if p.polyhedron._contains_homogeneous(hu, r.closure)
    )
    return QueryReport(uu, bool(matches), matches)


def _tighten(bound, closed, v, cl, is_lower):
    # fold one endpoint candidate into the running (bound, closed) pair
    if bound is None or (v > bound if is_lower else v < bound):
        return v, cl
    if v == bound:
        return bound, closed and cl
    return bound, closed


def _piece_interval(p: RegionPiece, closed: bool):
    # exact endpoint data (lo, lo_closed, hi, hi_closed) of a 1-d piece
    lo = hi = None
    lo_c = hi_c = False
    for c in p.polyhedron.equalities + p.polyhedron.inequalities:
        a = c.coeffs[0]
        if a == 0:
            continue  # constant condition, already feasible
        v = Fraction(-c.const, a)
        if c.rel == "==":
            lo, lo_c = _tighten(lo, lo_c, v, True, True)
            hi, hi_c = _tighten(hi, hi_c, v, True, False)
            continue
        cl = closed and c.kind != "interior"
        if a > 0:
            lo, lo_c = _tighten(lo, lo_c, v, cl, True)
        else:
            hi, hi_c = _tighten(hi, hi_c, v, cl, False)
    return lo, lo_c, hi, hi_c


def interval_union(r: FiberRegion) -> list:
    """Merged 1-d picture of the region: [(lo, lo_closed, hi, hi_closed)].

    Only for 1-dimensional models.  Endpoint openness follows the
    region's closure flag.  None endpoints cannot occur (the polytope is
    compact and interiority is part of every piece).
    """
    if r.model.dim != 1:
        raise ValueError("interval_union needs a 1-dimensional model")
    ivs = sorted(
        (_piece_interval(p, r.closure) for p in r.pieces),
        key=lambda iv: (iv[0], not iv[1]),
    )
    merged: list = []
    for lo, lo_c, hi, hi_c in ivs:
        if hi < lo or (hi == lo and not (lo_c and hi_c)):
            continue  # closure-off degenerate piece, empty as an interval
        if merged:
            plo, plo_c, phi, phi_c = merged[-1]
            if lo < phi or (lo == phi and (lo_c or phi_c)):
                if hi > phi:
                    phi, phi_c = hi, hi_c
                elif hi == phi:
                    phi_c = phi_c or hi_c
                merged[-1] = (plo, plo_c, phi, phi_c)
                continue
        merged.append((lo, lo_c, hi, hi_c))
    return merged


def _equality_rank(eqs, n):
    return rank_rational([list(c.coeffs) for c in eqs]) if eqs else 0


def piece_geometry(p: RegionPiece, dim: int):
    """Closed-piece drawing data for 2-d models.

    Returns ("polygon", pts), ("segment", (a, b)) or ("point", (w,)) with
    exact rational coordinates; rendering decides how to scale.  Closure
    is always used here, drawing the boundary of an open piece is the
    honest picture at pixel scale.
    """
    if dim != 2:
        raise ValueError("piece_geometry needs a 2-dimensional model")
    eqs = p.polyhedron.equalities
    ineqs = p.polyhedron.inequalities
    w = p.polyhedron.witness
    rank = _equality_rank(eqs, 2)
    if rank >= 2:
        return ("point", (w,))
    if rank == 1:
        g = next(c.coeffs for c in eqs if any(c.coeffs))
        d = (-g[1], g[0])  # direction along the equality line
        hw = _homogeneous(w)
        tmin, tmax = None, None
        for c in ineqs:
            a = sum(ci * di for ci, di in zip(c.coeffs, d))
            if a == 0:
                continue
            t = Fraction(-sum(map(mul, _row(c), hw)), hw[-1] * a)
            if a > 0:
                tmin = t if tmin is None else max(tmin, t)
            else:
                tmax = t if tmax is None else min(tmax, t)
        assert tmin is not None and tmax is not None, "piece line must be clipped by P"
        a_pt = tuple(wi + tmin * di for wi, di in zip(w, d))
        b_pt = tuple(wi + tmax * di for wi, di in zip(w, d))
        if a_pt == b_pt:
            return ("point", (a_pt,))
        return ("segment", (a_pt, b_pt))
    rows = [_row(c) for c in ineqs]
    pts = set()
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(
        [r for r in rows if r[0] or r[1]], 2
    ):
        det = a1 * b2 - b1 * a2
        if det == 0:
            continue
        # the vertex (x/det, y/det), homogeneous with a positive denominator
        x, y = -c1 * b2 + c2 * b1, -c2 * a1 + c1 * a2
        hv = (x, y, det) if det > 0 else (-x, -y, -det)
        if all(sum(map(mul, r, hv)) >= 0 for r in rows):
            pts.add((Fraction(x, det), Fraction(y, det)))
    pts = sorted(pts)
    if len(pts) < 3:
        if len(pts) == 2:
            return ("segment", tuple(pts))
        return ("point", (pts[0] if pts else w,))
    cx = sum(x for x, _ in pts) / len(pts)
    cy = sum(y for _, y in pts) / len(pts)
    ordered = sorted(pts, key=lambda q: math.atan2(float(q[1] - cy), float(q[0] - cx)))
    return ("polygon", tuple(ordered))
