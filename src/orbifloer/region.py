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
placed, and a leaf with a coloop level: a member whose direction lies
outside the span of the levels below joined with the level's other
members, so that the level's equations can never be solved.  A
scenario's serial is its rank among the span-valid candidates
in product order, the same with or without pruning: a skipped subtree
adds its memoized candidate count.

Feasibility is exact Fourier-Motzkin over integer rows (lattice.clear).
A system is held as the integer echelon rows of its equalities
(lattice.echelon) and a binding table of its strict rows (_fold): of
the rows sharing a primitive direction only
the tightest is kept.  The walk carries one system down each path and
folds in the one row a placed sector adds, so no row is substituted
twice, and each leaf hands its system to scenario_region.  _solve
eliminates the non-pivot variables, memoized on the table's binding rows
(_fourier_motzkin): the walk's prefixes and the pieces share a few dozen
distinct rows, so most systems recur.  Then it solves the pivots
(lattice.back_substitute).
piece_geometry likewise finds each distinct set of binding rows' polygon
once (_polygon).  Both memos are bounded LRU caches of results that depend
on their key alone.

Where only a sign, a hash or a vertex is needed, the work is in integers
and Fractions are made only of what is returned.  The walk carries each
prefix's witness as the homogeneous integers [U..., D] of _homogeneous,
so a new sector row is tested there by one integer dot product.  _polygon
finds, deduplicates and orders its vertices as reduced homogeneous
integers (x, y, d), and only the kept ones become Fractions.  _clip keeps
its bounds as integer pairs (num, den > 0), compared by
cross-multiplication, and makes one Fraction per end.  The signature
cache keys each rational by its numerator and denominator
(lts_signature).

query_point reads a region through its row index (FiberRegion.row_index),
built once on the first query: the region's constraints are a few dozen
distinct integer rows shared by all its pieces, the model's facet rows
first.  Each row is evaluated once per point, and the sign of its value
rules out a set of pieces, held as the bits of one int.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import mul, sub

from .errors import InputError, TooManyScenarios
from .lattice import back_substitute, clear, cleared, echelon, primitive, rank_rational
from .ltsolver import (
    SolvabilityVerdict,
    Solvability,
    build_lts,
    lts_signature,
    scenario_stratification,
    solve,
)
from .series import QC
from .stacky import StackyModel, enumerate_box, sector_ell_form


@dataclass(frozen=True)
class Constraint:
    """Affine condition row . (u, 1) REL 0, tagged with its origin.

    row is the integer tuple (gradient..., constant).  Only the sign of its
    value is ever read, so a positive multiple of a condition is the same
    condition: scenario_constraints emits integer multiples of the forms it
    names.  kind is one of "interior", "level", "order", "sector", "above".
    """

    row: tuple
    rel: str  # ">" or "=="
    kind: str
    label: str

    def admits(self, v, closed: bool) -> bool:
        """Whether the condition holds where its row's value is v (or has v's sign).

        The one closure rule: in closure mode a strict condition may also
        vanish, unless it is of kind "interior" (the limit argument never
        leaves the open moment polytope).  An equality holds at 0 only.
        """
        if self.rel == "==":
            return v == 0
        return v > 0 or (v == 0 and closed and self.kind != "interior")

    def holds(self, u, closed: bool = False) -> bool:
        return self.admits(sum(map(mul, self.row, _homogeneous(map(Fraction, u)))), closed)


def _homogeneous(u) -> list:
    """Integers [U_1, ..., U_n, D] with D > 0 and u = U / D, u of ints or Fractions.

    The sign of a condition at u is the sign of the dot product of its row
    with this list.
    """
    return cleared([*u, 1])


@dataclass(frozen=True)
class Scenario:
    serial: int
    levels: tuple  # per level: tags ("facet", j) then ("sector", i), each ascending
    excluded: tuple  # sector tags with bulk switched off
    span_dims: tuple  # always (): scenario_lts reads each level's rank off its Hermite pass

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
    conditions: tuple  # Constraint, rel "==" or ">"
    witness: tuple  # Fractions, strictly feasible

    def contains(self, u, closed: bool = False) -> bool:
        p = _homogeneous(u)
        return all(c.admits(sum(map(mul, c.row, p)), closed) for c in self.conditions)


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

    @cached_property
    def row_index(self) -> tuple:
        """(rows, forbid), the region's constraints as query_point reads them.

        rows holds the model's facet rows (distinct: build_model refuses a
        repeated facet), then every other distinct condition row of the
        pieces.  forbid[k] holds three ints, bit i for piece i: the pieces
        row k rules out at a negative, zero and positive value, the signs
        at which one of the piece's conditions on that row does not admit
        it (Constraint.admits).  Built on first use, so a region made by
        replace() builds its own.
        """
        forbid = {row: [0, 0, 0] for row in _model_rows(self.model)[0]}
        signs_of: dict = {}  # pieces share Constraint objects: each is read once
        for i, p in enumerate(self.pieces):
            bit = 1 << i
            for c in p.polyhedron.conditions:
                hit = signs_of.get(id(c))
                if hit is None:
                    signs = [s for s in range(3) if not c.admits(s - 1, self.closure)]
                    hit = signs_of[id(c)] = forbid.setdefault(c.row, [0, 0, 0]), signs
                f, signs = hit
                for s in signs:
                    f[s] |= bit
        return tuple(forbid), tuple(map(tuple, forbid.values()))


@dataclass(frozen=True)
class QueryReport:
    u: tuple
    member: bool
    matches: tuple  # RegionPiece entries containing u
    interior: bool = True


# the most span-valid scenario candidates a walk takes on
SCENARIO_LIMIT = 10**6


def enumerate_scenarios(m: StackyModel, max_levels: int = 2) -> list:
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
    order.  SCENARIO_LIMIT bounds the number of candidates: it is counted
    before any is built, and TooManyScenarios names the count.
    """
    return [s for s, _ in _scenario_walk(m, max_levels)]


class _SpanTree:
    """The level digits of the K-level scenarios of one model.

    Digit p is the level of generator p, facets first and then sectors;
    0 leaves the generator out.  Walking the digits depth first, each
    taking 0..K in turn, meets the assignments in itertools.product order.
    A node's state is the tuple of cumulative level spans V_1 <= ... <= V_K
    and the bit set of levels a facet pins; a span is the id of its
    echelon basis, so equal spans are equal states.  How many span-valid
    assignments lie below a node depends on its depth and state alone, so
    the count is memoized, and so is each join of a span with a generator
    (_join), which the region walk's coloop test of a leaf (coloop_leaf)
    reuses.  The tree lives as long as the walk, so no state outlives one
    region.
    """

    def __init__(self, dirs: list, nf: int, dim: int, K: int):
        self.dirs, self.nf, self.dim, self.K = dirs, nf, dim, K
        self.n = len(dirs)
        self._bases = [()]  # span id -> echelon basis; 0 is the zero space
        self._ids = {(): 0}
        self._joins: dict = {}
        self._counts: dict = {}
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
            basis = tuple(echelon(self._bases[span] + (self.dirs[p],), self.dim)[0])
            out = self._ids.get(basis)
            if out is None:
                out = self._ids[basis] = len(self._bases)
                self._bases.append(basis)
            self._joins[key] = out
        return out

    def coloop_leaf(self, digits: list, state) -> bool:
        """Whether some level of a leaf has a coloop member.

        Member a of level l is a coloop when the span V_{l-1} of the levels
        below, joined with the level's other members, is smaller than V_l:
        no combination of the others and the lower levels reaches a.  This
        is the rule of ltsolver._has_coloop, a member that every relation
        gives weight 0, tested here on spans before any system is built.
        """
        below = 0
        for l, span in enumerate(state[0], 1):
            members = [p for p, v in enumerate(digits) if v == l]
            for a in members:
                rest = reduce(self._join, (p for p in members if p != a), below)
                if self.rank(rest) < self.rank(span):
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


def _scenario_walk(m: StackyModel, max_levels: int, grow=None):
    """Span-valid scenarios in product order, serials counted as ranks.

    grow(tree, digits, state, ctx) runs on every node with span-valid
    leaves below it, once its last digit is placed, with the node's
    _SpanTree state; it returns the context of the subtree, or None to
    skip it.  A skipped subtree adds its memoized candidate count to the
    serial counter without visiting its leaves.  Yields (scenario, ctx)
    pairs, ctx the leaf's context (() without grow).
    Raises TooManyScenarios at once when the candidates exceed SCENARIO_LIMIT.
    """
    if max_levels < 1:
        raise InputError(f"max_levels must be a positive integer, got {max_levels}")
    box = enumerate_box(m)
    nf = len(m.facets)
    dirs = [f.stacky_vector for f in m.facets] + [s.nu for s in box]
    trees = [_SpanTree(dirs, nf, m.dim, K) for K in range(1, min(max_levels, m.dim) + 1)]
    total = sum(t.count(0, t.root) for t in trees)
    if total > SCENARIO_LIMIT:
        raise TooManyScenarios(f"{total} scenario candidates, more than the limit {SCENARIO_LIMIT}")
    return _leaves(trees, nf, grow)


def _leaves(trees: list, nf: int, grow):
    serial = 0
    digits: list = []

    def visit(tree, p, state, ctx):
        nonlocal serial
        if p == tree.n:
            yield _scenario(serial, digits, nf, tree.K), ctx
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


def _scenario(serial: int, digits: list, nf: int, K: int) -> Scenario:
    sectors = list(enumerate(digits[nf:]))
    levels = tuple(
        tuple(
            [("facet", j) for j in range(nf) if digits[j] == l]
            + [("sector", i) for i, v in sectors if v == l]
        )
        for l in range(1, K + 1)
    )
    excluded = tuple(("sector", i) for i, v in sectors if v == 0)
    return Scenario(serial, levels, excluded, ())


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


class _ConstraintTable(dict):
    """A model's Constraint objects keyed by (kind, indices), each built once.

    The keys, with a the anchor facet of a level l (0-based) and K the
    scenario's level count:
      ("interior", j)       ell_j > 0
      ("level", a, j)       ell_a = ell_j
      ("sector", a, i, l)   ell_nu_i < S_{l+1}, as ell_a - ell_nu_i > 0
      ("order", b, a, l)    S_{l+2} > S_{l+1}, as ell_b - ell_a > 0
      ("above", j, a, K)    ell_j > S_K, as ell_j - ell_a > 0
    A missing key builds its Constraint from the model's rows (_model_rows):
    ell_j's own row for "interior", else the row difference of the two
    forms it compares.
    """

    def __init__(self, m: StackyModel):
        super().__init__()
        self.m = m

    def __missing__(self, key: tuple) -> Constraint:
        facet, sector = _model_rows(self.m)
        kind, x, *rest = key
        if kind == "interior":
            c = Constraint(facet[x], ">", kind, f"ell_{x} > 0")
        else:
            if kind == "level":
                other, rel, label = facet[rest[0]], "==", f"ell_{x} = ell_{rest[0]}"
            elif kind == "sector":
                i, l = rest
                nu = enumerate_box(self.m)[i].nu
                other, rel, label = sector[i], ">", f"ell_nu{nu} < S{l + 1}"
            elif kind == "order":
                a, l = rest
                other, rel, label = facet[a], ">", f"S{l + 2} > S{l + 1}"
            else:
                a, K = rest
                other, rel, label = facet[a], ">", f"ell_{x} > S{K}"
            c = Constraint(tuple(map(sub, facet[x], other)), rel, kind, label)
        self[key] = c
        return c


@lru_cache(maxsize=None)
def _model_constraints(m: StackyModel) -> _ConstraintTable:
    """The model's constraint table, one per model like _model_rows."""
    return _ConstraintTable(m)


def scenario_constraints(m: StackyModel, s: Scenario) -> list:
    """The scenario's defining conditions on u, each tagged with its origin.

    Each condition is an integer multiple of the form difference it names.
    The Constraint objects are shared by every scenario of the model
    (_model_constraints).
    """
    table = _model_constraints(m)
    nf = len(m.facets)
    keys = [("interior", j) for j in range(nf)]
    anchors = []
    for l, tags in enumerate(s.levels):
        facets = [i for k, i in tags if k == "facet"]
        a = facets[0]
        anchors.append(a)
        keys += [("level", a, j) for j in facets[1:]]
        keys += [("sector", a, i, l) for k, i in tags if k == "sector"]
    keys += [("order", anchors[l + 1], anchors[l], l) for l in range(len(anchors) - 1)]
    assigned = {i for tags in s.levels for k, i in tags if k == "facet"}
    keys += [("above", j, anchors[-1], s.K) for j in range(nf) if j not in assigned]
    return [table[key] for key in keys]


def _substitute(vec: list, subs: tuple) -> list:
    """Eliminate the pivot columns of subs from an integer row, as a primitive row.

    Each pivot row has a positive pivot, so every clear multiplies the
    condition by a positive number and strict rows keep their meaning.
    """
    for row, k in zip(*subs):
        if vec[k]:
            vec = clear(vec, row, k)
    return primitive(vec)


def _fold(table: dict, row) -> bool:
    """Fold one strict integer row into a binding table; False when infeasible.

    The row is strict (row[:-1].u + row[-1] > 0).  The table maps each
    primitive direction to (g, row), the tightest row of that direction
    folded so far and its direction's gcd g: a looser parallel row is
    implied by it and never moves a bound or carries a vertex.  A row of
    zero direction is a constant; a nonpositive one makes the system
    infeasible, a positive one is dropped.  Of rows that are positive
    multiples of each other the first stays, so on primitive rows the
    table's rows depend neither on the order of the folds nor on repeats.
    """
    g = math.gcd(*row[:-1])
    if g == 0:
        return row[-1] > 0
    key = tuple(x // g for x in row[:-1])
    kept = table.get(key)
    if kept is None or row[-1] * kept[0] < kept[1][-1] * g:
        table[key] = (g, tuple(row))
    return True


def _binding(rows):
    """The binding rows of a strict integer system (_fold), or None when infeasible.

    Returns a frozenset of tuples.
    """
    table: dict = {}
    if all(_fold(table, row) for row in rows):
        return frozenset(row for _, row in table.values())
    return None


@lru_cache(maxsize=4096)
def _fourier_motzkin(rows: frozenset, free: tuple):
    """Witness of binding rows over free, eliminating free[-1] first.

    Every row is strict and only involves the variables in free.
    Strictness survives the pairwise combinations, so a feasible system
    always has interior points and the midpoint reconstruction below is
    safe.  Only the binding rows of the combinations go on (_binding): FM
    cost is quadratic in the row count and duplicates are common here.
    Bounds are ratios, unchanged by positive row scalings, and the max and
    min of a set of them do not depend on its order, so the result is a
    function of the key.  Returns the witness as (var, Fraction) pairs, or
    None.
    """
    if not free:
        return ()
    k = free[-1]
    lowers, uppers, rest = [], [], []
    for row in rows:
        a = row[k]
        (rest if a == 0 else lowers if a > 0 else uppers).append(row)
    rest += [clear(up, lo, k) for lo in lowers for up in uppers]
    rest = _binding(rest)
    sol = None if rest is None else _fourier_motzkin(rest, free[:-1])
    if sol is None:
        return None
    sol = dict(sol)

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
    return tuple(sol.items())


def _system(cons, n: int):
    """(subs, table) of the conditions cons, or None.

    subs are the equalities' pivot rows and pivot columns (echelon) and
    table the binding table of the strict rows with the pivots substituted
    (_fold).  None means a contradiction already shows: conflicting
    equalities or a nonpositive constant row.
    """
    rows, pivots, rest = echelon([c.row for c in cons if c.rel == "=="], n)
    if any(row[n] for row in rest):
        return None
    subs = rows, pivots
    table: dict = {}
    if all(_fold(table, _substitute(c.row, subs)) for c in cons if c.rel == ">"):
        return subs, table
    return None


def _solve(subs: tuple, table: dict, n: int):
    """Witness of a system (_system), or None when it is infeasible.

    Fourier-Motzkin on the table's binding rows over the non-pivot
    variables (_fourier_motzkin), then each pivot solved from its row
    (back_substitute).
    """
    rows, pivots = subs
    sol = _fourier_motzkin(
        frozenset(row for _, row in table.values()), tuple(k for k in range(n) if k not in pivots)
    )
    if sol is None:
        return None
    sol = dict(sol)
    return tuple(back_substitute(rows, pivots, [sol.get(k, 0) for k in range(n)] + [1])[:n])


def scenario_region(m: StackyModel, s: Scenario, system=None) -> ScenarioPolyhedron | None:
    """Feasible u-set of a scenario, or None when empty.

    ``system``, the (subs, table) of the scenario's rows as _system builds
    them, is built from scenario_constraints when not given; the region
    walk hands each leaf's own.  The witness must satisfy every
    constraint, which also checks that a given system is this scenario's.
    """
    cons = scenario_constraints(m, s)
    if system is None:
        system = _system(cons, m.dim)
    w = None if system is None else _solve(*system, m.dim)
    if w is None:
        return None
    poly = ScenarioPolyhedron(tuple(cons), w)
    if not poly.contains(w):
        raise AssertionError(f"scenario {s.serial}: witness {w} breaks its own system")
    return poly


@lru_cache(maxsize=None)
def _tag_coeff(tag: tuple):
    """The coefficient of a tag in a scenario system.

    Facet terms carry coefficient 1; each sector gets its own free symbol,
    named by box index, stable across scenarios so structurally equal
    systems share a signature.
    """
    kind, i = tag
    return QC.of(1) if kind == "facet" else QC.symbol(f"c{i}")


def scenario_lts(m: StackyModel, s: Scenario):
    """The u-independent leading term system of a scenario."""
    coeffs = {tag: _tag_coeff(tag) for tags in s.levels for tag in tags}
    return build_lts(scenario_stratification(m, s.levels, coeffs))


def nondisplaceable_region(
    m: StackyModel,
    max_levels: int = 2,
    closure: bool = True,
    seed: int = 0,
) -> FiberRegion:
    """Union of feasible scenario pieces whose systems are certified.

    The scenario walk skips every candidate that cannot become a piece
    before any work on it: prefixes that are already infeasible and leaves
    with a coloop level, whose system provably has no root
    (_piece_candidates).  Each leaf's feasibility system comes from the
    walk's context, so scenario_region only solves it, usually a memo
    hit.  Serials stay the ranks enumerate_scenarios gives.  Verdicts are
    cached by structural signature: scenarios producing the same level
    polynomials up to symbol renaming share one solve, and a shared
    certificate is renamed into each scenario's own symbols.  The
    signature is read off the exponent rows of each level (lts_signature),
    and solve reads the same rows, so no Laurent polynomial is built.
    """
    pieces = []
    cache: dict = {}
    for s, (system, _, _) in _scenario_walk(m, max_levels, _piece_candidates(m)):
        poly = scenario_region(m, s, system)
        if poly is None:
            continue
        lts = scenario_lts(m, s)
        sig, names = lts_signature(lts)
        hit = cache.get(sig)
        if hit is None:
            verdict = solve(lts, seed=seed)
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
    adds the one strict row ell_anchor - ell_nu, the model's constraint
    ("sector", a, i, l), so an infeasible prefix stays infeasible in every
    completion.  The test is exact integer FM on the rows
    scenario_constraints emits.  The facet-complete node
    builds their system once (_system); a sector child substitutes its one
    new row and folds it into a copy of its parent's binding table
    (_fold), and solves (_solve) only when the row is not positive at its
    parent's witness.  The walk carries that witness as the integers
    [U..., D] of _homogeneous, converted once per _solve, so the test is
    one integer dot product.

    A leaf is first checked for a coloop level (_SpanTree.coloop_leaf): a
    member a of level l whose direction lies outside V_{l-1} + span(others),
    V_{l-1} the span of the levels below.  Modulo V_{l-1} the members'
    directions are the level's own exponents, and every relation among
    them gives a weight 0, yet its term c_a y^a is never zero (every region
    coefficient is 1 or a pure symbol), so the level has no torus root
    (ltsolver._has_coloop, after Fukaya-Oh-Ohta-Ono for toric manifolds).
    The leaf is skipped before scenario_region, scenario_lts and solve.  A
    level with one member, which must add span, always has one.  The
    context of a feasible prefix is its (system, level anchors, homogeneous
    witness), system the (equality pivots, binding table) of its rows,
    which a leaf hands to scenario_region.
    """
    constraints = _model_constraints(m)
    nf, n = len(m.facets), len(m.facets) + len(enumerate_box(m))

    def grow(tree, digits, state, ctx):
        p = len(digits)
        if p < nf:
            return ctx
        if p == n and tree.coloop_leaf(digits, state):
            return None
        if p == nf:
            facets = _scenario(-1, digits, nf, tree.K)
            system = _system(scenario_constraints(m, facets), m.dim)
            if system is None:
                return None
            anchors = [tags[0][1] for tags in facets.levels]
            w = _solve(*system, m.dim)
        elif digits[-1] == 0:
            return ctx  # a sector left out adds no condition
        else:
            (subs, table), anchors, hw = ctx
            l = digits[-1] - 1
            row = constraints["sector", anchors[l], p - 1 - nf, l].row
            table = dict(table)
            if not _fold(table, _substitute(row, subs)):
                return None
            system = subs, table
            if sum(map(mul, row, hw)) > 0:
                return system, anchors, hw
            w = _solve(*system, m.dim)
        if w is None:
            return None
        return system, anchors, _homogeneous(w)

    return grow


def _renamed(verdict: SolvabilityVerdict, solved: tuple, own: tuple) -> SolvabilityVerdict:
    """A cached verdict with its symbols renamed from solved to own.

    Both are the symbol tuples lts_signature gives for systems with one
    signature, which match the two systems symbol by symbol.
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
    are reported as non-members rather than rejected; a point with the
    wrong number of coordinates raises InputError.  Each row of the row
    index is evaluated once, in integers: a facet row at or below zero ends
    the query with interior=False, and the pieces no row rules out
    (FiberRegion.row_index) are the matches, in r.pieces order.
    """
    uu = tuple(Fraction(x) for x in u)
    if len(uu) != r.model.dim:
        raise InputError(f"u has {len(uu)} coordinates, model has dimension {r.model.dim}")
    hu = _homogeneous(uu)
    rows, forbid = r.row_index
    nf = len(r.model.facets)
    out = 0
    for k, (row, f) in enumerate(zip(rows, forbid)):
        v = sum(map(mul, row, hu))
        if v <= 0 and k < nf:
            return QueryReport(uu, False, (), interior=False)
        out |= f[(v >= 0) + (v > 0)]
    # one byte per piece, lowest bit first: 1 where no row rules the piece out
    keep = bin(~out & ((1 << len(r.pieces)) - 1))[:1:-1].encode()
    keep = keep.translate(bytes.maketrans(b"01", b"\0\1"))
    matches = tuple(itertools.compress(r.pieces, keep))
    return QueryReport(uu, bool(matches), matches)


def _clip(p: RegionPiece, base, d, closed: bool = True):
    """Exact (lo, lo_closed, hi, hi_closed), in t, of a piece on the line base + t*d.

    A condition with a = gradient.d != 0 meets the line at t = -value(base)/a,
    kept as the integer pair (-row.hb, a*D) with hb = [U..., D] the
    homogeneous base, its denominator made positive.  It bounds t from
    below when it is an equality or a > 0, and from above when it is an
    equality or a < 0; one with a = 0 is parallel and skipped.  lo is the
    largest lower bound and hi the smallest upper bound, pairs compared by
    cross-multiplication, and only the two ends become Fractions.  An end
    is closed when every condition that reaches it admits the value 0
    there (Constraint.admits).  A piece holds the interior rows
    of a compact polytope, so every line meets bounds on both sides.
    """
    hb = _homogeneous(base)
    lower, upper = [], []
    for c in p.polyhedron.conditions:
        a = sum(map(mul, c.row, d))  # d is one shorter: the gradient part
        if a == 0:
            continue
        num, den = -sum(map(mul, c.row, hb)), hb[-1] * a
        if den < 0:
            num, den = -num, -den
        bound = (num, den), c.admits(0, closed)
        if c.rel == "==" or a > 0:
            lower.append(bound)
        if c.rel == "==" or a < 0:
            upper.append(bound)

    def endpoint(bounds, sign):
        (n, e), _ = bounds[0]
        for (m, f), _ in bounds[1:]:
            if (m * e - n * f) * sign > 0:
                n, e = m, f
        return Fraction(n, e), all(cl for (m, f), cl in bounds if m * e == n * f)

    return (*endpoint(lower, 1), *endpoint(upper, -1))


def _piece_interval(p: RegionPiece, closed: bool):
    """Exact endpoints (lo, lo_closed, hi, hi_closed) of a 1-d piece: its clip of the u-axis."""
    return _clip(p, (0,), (1,), closed)


def interval_union(r: FiberRegion) -> list:
    """Merged 1-d picture of the region: [(lo, lo_closed, hi, hi_closed)].

    Only for 1-dimensional models.  Endpoint openness follows the
    region's closure flag.  No piece is empty: its witness holds the strict
    rows strictly, so a one-point piece is closed at both ends.
    """
    if r.model.dim != 1:
        raise ValueError("interval_union needs a 1-dimensional model")
    ivs = sorted(
        (_piece_interval(p, r.closure) for p in r.pieces),
        key=lambda iv: (iv[0], not iv[1]),
    )
    merged: list = []
    for lo, lo_c, hi, hi_c in ivs:
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


def piece_geometry(p: RegionPiece, dim: int):
    """Closed-piece drawing data for 2-d models.

    Returns ("polygon", pts), ("segment", (a, b)) or ("point", (w,)) with
    exact rational coordinates; rendering decides how to scale.  Closure
    is always used here, drawing the boundary of an open piece is the
    honest picture at pixel scale.
    """
    if dim != 2:
        raise ValueError("piece_geometry needs a 2-dimensional model")
    eqs = [c.row for c in p.polyhedron.conditions if c.rel == "=="]
    w = p.polyhedron.witness
    rank = rank_rational([row[:-1] for row in eqs])
    if rank >= 2:
        return ("point", (w,))
    if rank == 1:
        g = next(row for row in eqs if any(row[:-1]))
        d = (-g[1], g[0])  # direction along the equality line
        tmin, _, tmax, _ = _clip(p, w, d)
        return ("segment", tuple(tuple(wi + t * di for wi, di in zip(w, d)) for t in (tmin, tmax)))
    return _polygon(_binding(c.row for c in p.polyhedron.conditions if c.rel == ">"))


@lru_cache(maxsize=1024)
def _polygon(rows: frozenset):
    """Closed polygon of the binding rows of a 2-d piece of rank 0.

    A vertex meets two non-parallel binding rows and satisfies all of them;
    a dominated parallel row carries no vertex and cuts none off, so the
    binding rows give the same vertices as all of a piece's rows.  A piece
    holds an open disc about its witness, so it has three vertices or more.
    Vertices are found and deduplicated as reduced homogeneous integers
    (x, y, d), d > 0, and only the kept ones become Fractions.  They are
    ordered by angle about their centroid, read from integer numerators
    over D*n (D the lcm of the d, n the vertex count): int/int true
    division rounds as float() of the Fraction does.  Equal angles fall
    back to the vertices' coordinates.
    """
    seen: dict = {}
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(rows, 2):
        det = a1 * b2 - b1 * a2
        if det == 0:
            continue
        # the vertex (x/det, y/det), reduced, with a positive denominator
        x, y = -c1 * b2 + c2 * b1, -c2 * a1 + c1 * a2
        g = math.gcd(x, y, det) if det > 0 else -math.gcd(x, y, det)
        x, y, d = x // g, y // g, det // g
        hv = (x, y, d)
        if hv not in seen:
            seen[hv] = all(a * x + b * y + c * d >= 0 for a, b, c in rows)
    pts = [hv for hv, kept in seen.items() if kept]
    n, D = len(pts), math.lcm(*(d for _, _, d in pts))
    scaled = [(x * (D // d), y * (D // d)) for x, y, d in pts]
    sx, sy = sum(x for x, _ in scaled), sum(y for _, y in scaled)
    ordered = sorted(
        (math.atan2((y * n - sy) / (D * n), (x * n - sx) / (D * n)), Fraction(hx, d), Fraction(hy, d))
        for (x, y), (hx, hy, d) in zip(scaled, pts)
    )
    return ("polygon", tuple(q[1:] for q in ordered))
