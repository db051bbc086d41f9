"""Exact integer and rational linear algebra over lattices.

Smith normal form with transform matrices, determinants, dual bases,
simplicial-cone multiplicities, a unimodular-basis-inside-a-cone subdivision
algorithm, and flag-adapted lattice bases.  Everything is computed with
arbitrary-precision integers and ``fractions.Fraction``; no floating point
enters this module.

Every elimination (echelon bases, ranks, square and rectangular solves,
inverses) runs through one fraction-free routine, ``_eliminate``; only
``row_reduce`` divides, once per entry at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DegenerateCone, FlagNotIncreasing, NotUnimodular

# Vectors are tuples of ints (lattice) or Fractions (rational); matrices are
# tuples of row tuples.  Helpers below keep everything immutable.

Vec = tuple  # tuple[int, ...]
QVec = tuple  # tuple[Fraction, ...]
Mat = tuple  # tuple[tuple[int, ...], ...]


def vec(coords) -> Vec:
    return tuple(int(c) for c in coords)


def mat(rows) -> Mat:
    rows = tuple(tuple(int(e) for e in row) for row in rows)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


@lru_cache(maxsize=None)
def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Mat, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def content(v: Vec) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for c in v:
        g = gcd(g, abs(int(c)))
    return g


def is_primitive(v: Vec) -> bool:
    return content(v) == 1


def primitive(row: list) -> list:
    """An integer row divided by the gcd of its entries (a zero row as is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def cleared(row) -> list:
    """A rational row times the lcm of its denominators, as integers."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def det_int(m: Mat) -> int:
    """Determinant of a square integer matrix, exact (Bareiss elimination).

    Examples
    --------
    >>> det_int(((1, 0), (1, 2)))
    2
    >>> det_int(((3, 0), (0, 5)))
    15
    """
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: exact division keeps entries integral
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _eliminate(work: list, ncols: int) -> list:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots are taken in the first ncols columns, each pivot row moved up to
    its rank; every other row is cleared in the pivot column and divided by
    the gcd of its entries.  A row scaled by a nonzero number spans the
    same line, so no Fraction is ever made.  Returns the pivot columns.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        prow = work[piv]
        work[piv], work[rank] = work[rank], prow
        p = prow[col]
        for r, row in enumerate(work):
            f = row[col]
            if f and r != rank:
                work[r] = primitive([p * e - f * q for e, q in zip(row, prow)])
        pivots.append(col)
    return pivots


def row_reduce(rows, ncols: int) -> tuple:
    """Reduced row echelon form over Q with pivots in the first ncols columns.

    Columns from ncols on ride along as right-hand sides.  Returns the
    pivot rows (Fractions, 1 at their pivot and 0 at every other pivot
    column), their pivot columns and the leftover rows (integer multiples,
    zero in the first ncols columns).  The elimination is fraction-free on
    integer rows (_eliminate): only the final division by each pivot makes
    Fractions.
    """
    work = [cleared(row) for row in rows]
    pivots = _eliminate(work, ncols)
    rank = len(pivots)
    reduced = [tuple(Fraction(e, row[col]) for e in row) for row, col in zip(work, pivots)]
    return reduced, pivots, work[rank:]


def echelon_rational(rows) -> tuple:
    """Reduced row echelon basis of the span of rational/integer rows.

    Zero rows are dropped, so rows with one span give one result: the
    tuple is a canonical key of the subspace.
    """
    if not rows:
        return ()
    return tuple(row_reduce(rows, len(rows[0]))[0])


def rank_rational(rows) -> int:
    """Rank of a list of rational/integer row vectors.

    The pivot count of the fraction-free elimination; no Fraction is made.
    """
    if not rows:
        return 0
    return len(_eliminate([cleared(row) for row in rows], len(rows[0])))


def solve_rational(a: Mat, b) -> QVec | None:
    """Solve a*x = b exactly; None if the square system is singular."""
    n = len(a)
    reduced, _, _ = row_reduce([(*row, bi) for row, bi in zip(a, b)], n)
    if len(reduced) < n:
        return None
    return tuple(row[n] for row in reduced)


def invert_unimodular(m: Mat) -> Mat:
    """Inverse of an integer matrix with det +-1, as an integer matrix.

    Fraction-free Gauss-Jordan on (m | I) leaves each pivot row as
    p * e_i | p * (row i of the inverse); one exact division per entry at
    the end recovers the inverse.  An integer matrix has an integer inverse
    exactly when its determinant is +-1, so a singular matrix or a
    remainder raises NotUnimodular.

    Examples
    --------
    >>> invert_unimodular(((2, 1), (1, 1)))
    ((1, -1), (-1, 2))
    """
    n = len(m)
    work = [[*row, *unit] for row, unit in zip(m, identity(n))]
    if any(len(row) != 2 * n for row in work):
        raise NotUnimodular("only a square matrix can be unimodular")
    if len(_eliminate(work, n)) < n:
        raise NotUnimodular("singular matrix")
    inv = []
    for i, row in enumerate(work):
        p = row[i]
        out = []
        for e in row[n:]:
            q, r = divmod(e, p)
            if r:
                raise NotUnimodular("determinant is not +-1")
            out.append(q)
        inv.append(tuple(out))
    return tuple(inv)


def solve_many(a: Mat, rhs: Mat) -> Mat:
    """Solve a*X = rhs for all columns in one elimination; raises on singular a."""
    n = len(a)
    reduced, _, _ = row_reduce([(*row, *r) for row, r in zip(a, rhs)], n)
    if len(reduced) < n:
        raise DegenerateCone("singular matrix")
    return tuple(row[n:] for row in reduced)


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(m: Mat) -> tuple[Mat, Mat, Mat]:
    """Smith normal form with transforms: U * m * V = D.

    U and V are unimodular; D is (rectangular) diagonal with nonnegative
    entries satisfying d1 | d2 | ... .  Total on all integer matrices.

    Examples
    --------
    >>> U, D, V = smith_normal_form(((2, 0), (0, 3)))
    >>> [D[i][i] for i in range(2)]
    [1, 6]
    """
    m = mat(m)
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [list(row) for row in m]
    u = [list(row) for row in identity(nr)]
    v = [list(row) for row in identity(nc)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_add(dst, src, q):
        # R_dst += q * R_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def col_add(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def near_q(x, p):
        # quotient with minimal remainder; floor quotients let the transform
        # entries snowball on alternating signs
        q, r = divmod(x, p)
        if 2 * abs(r) > abs(p):
            q += 1
        return q

    t = 0
    while t < min(nr, nc):
        # pick the absolutely smallest nonzero entry of the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = near_q(a[i][t], a[t][t])
                    row_add(i, t, -q)
                    if a[i][t] != 0:
                        # remainder is smaller than the pivot; promote it
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = near_q(a[t][j], a[t][t])
                    col_add(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in v),
    )


# ---------------------------------------------------------------------------
# Simplicial cones


@dataclass(frozen=True)
class SimplicialCone:
    """Full-dimensional simplicial cone spanned by n independent lattice vectors.

    ``facet_indices`` optionally records which polytope facets contributed the
    generators (used by the moment-polytope layer).
    """

    generators: tuple
    facet_indices: tuple | None = None

    def __post_init__(self):
        gens = tuple(vec(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens or any(len(g) != len(gens[0]) for g in gens):
            raise DegenerateCone("generators must share one ambient dimension")

    @property
    def dim(self) -> int:
        return len(self.generators[0])

    def generator_matrix(self) -> Mat:
        """Generators as columns."""
        return transpose(self.generators)

    def coordinates_of(self, x) -> QVec:
        """Barycentric coordinates t with x = sum t_i * g_i, exact."""
        if len(self.generators) != self.dim:
            raise DegenerateCone("cone is not full-dimensional")
        t = solve_rational(self.generator_matrix(), x)
        if t is None:
            raise DegenerateCone("generators are linearly dependent")
        return t

    def contains(self, x) -> bool:
        return all(c >= 0 for c in self.coordinates_of(x))


def cone_multiplicity(c: SimplicialCone) -> int:
    """|det| of the generator matrix; DegenerateCone if the generators are dependent."""
    if len(c.generators) != c.dim:
        raise DegenerateCone("cone is not full-dimensional")
    d = det_int(c.generator_matrix())
    if d == 0:
        raise DegenerateCone("generators are linearly dependent")
    return abs(d)


def dual_rational_basis(gens) -> list:
    """Rational vectors u_1..u_n with <g_i, u_j> exactly delta_ij.

    Examples
    --------
    >>> dual_rational_basis([(2, 0), (0, 2)])
    [(Fraction(1, 2), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 2))]
    """
    gens = [vec(g) for g in gens]
    n = len(gens)
    if n == 0 or any(len(g) != n for g in gens):
        raise DegenerateCone("need n independent generators in dimension n")
    cols = solve_many(tuple(gens), identity(n))
    # column j of G^-1 pairs to delta with row i of G
    return [tuple(cols[i][j] for i in range(n)) for j in range(n)]


def box_points(c: SimplicialCone) -> list[tuple]:
    """All nonzero lattice points v = sum t_i g_i with every t_i in [0, 1).

    Returns (v, t) pairs; there are exactly multiplicity-1 of them.  The
    enumeration walks coset representatives of the quotient of the ambient
    lattice by the sublattice the generators span (via Smith normal form),
    so it never scans a search box.
    """
    b = c.generator_matrix()
    mult = cone_multiplicity(c)
    if mult == 1:
        return []
    u, d, _ = smith_normal_form(b)
    n = c.dim
    uinv = invert_unimodular(u)
    diag = [d[i][i] for i in range(n)]
    reps = [()]
    for di in diag:
        reps = [r + (k,) for r in reps for k in range(max(di, 1))]
    out = []
    for r in reps:
        if all(k == 0 for k in r):
            continue
        x = mat_vec(uinv, r)
        t = solve_rational(b, x)
        tfrac = tuple(ti - (ti.numerator // ti.denominator) for ti in t)
        v = []
        for k in range(n):
            coord = sum(Fraction(g[k]) * ti for g, ti in zip(c.generators, tfrac))
            assert coord.denominator == 1
            v.append(coord.numerator)
        out.append((tuple(v), tfrac))
    out.sort(key=lambda p: p[0])
    return out


def integral_basis_in_cone(c: SimplicialCone, trace: list | None = None) -> list:
    """A Z-basis of the ambient lattice whose vectors all lie inside the cone.

    Iterative subdivision: pick a fractional lattice point v = sum t_i g_i
    with t_i in [0,1), make v/content primitive, swap it for one generator,
    and recurse into the subdivided cone of smallest multiplicity.  The
    multiplicity strictly decreases each round (append the trail to ``trace``
    to observe it), so the loop stops at a unimodular cone whose generators
    are the answer.

    Ties between subdivisions are broken by lexicographic minimality of the
    sorted generator matrix.
    """
    gens = list(c.generators)
    n = c.dim
    if len(gens) != n:
        raise DegenerateCone("cone is not full-dimensional")
    while True:
        cur = SimplicialCone(tuple(gens))
        mult = cone_multiplicity(cur)
        if trace is not None:
            trace.append(mult)
        if mult == 1:
            return sorted(vec(g) for g in gens)
        best = None
        for v, t in box_points(cur):
            d = content(v)
            w = tuple(x // d for x in v)
            for i, ti in enumerate(t):
                if ti == 0:
                    continue
                sub = gens[:i] + [w] + gens[i + 1 :]
                submult = abs(det_int(transpose(tuple(sub))))
                key = (submult, tuple(sorted(sub)))
                if best is None or key < best[0]:
                    best = (key, sub)
        # a nonzero box point always exists when mult > 1
        gens = best[1]


# ---------------------------------------------------------------------------
# Flag-adapted bases


def saturated_span_basis(vecs) -> list:
    """Z-basis of (Q-span of vecs) intersected with Z^n.

    The first r rows of V^-1, where U*M*V = D is the Smith form of the
    stacked vectors and r is the rank: V^-1 is a basis of Z^n and its
    leading rows span the saturation of the row space.
    """
    return list(_saturation(mat(vecs)))


@lru_cache(maxsize=64)
def _saturation(m: Mat) -> tuple:
    # memoized: the scenarios of one region share many of their level stacks
    if not m:
        return ()
    _, d, v = smith_normal_form(m)
    r = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    # M = U^-1 D V^-1, so the Q-row-space of M is spanned by the first r rows
    # of V^-1, which generate a saturated sublattice (V^-1 is a basis of Z^n).
    return invert_unimodular(v)[:r]


def saturate_flag(chain) -> list:
    """Ordered Z-basis of Z^n adapted to an increasing chain of spans.

    ``chain`` is a list of lists of lattice vectors A_1, ..., A_L with
    span(A_l) nested increasingly and span(A_L) = R^n.  The first
    dim(span(A_l)) output vectors form a Z-basis of span(A_l) /\\ Z^n for
    every l.  Raises FlagNotIncreasing when the spans fail to nest or the
    last one is not full.
    """
    levels = [[vec(w) for w in grp] for grp in chain]
    if not levels or any(not grp for grp in levels):
        raise FlagNotIncreasing("chain must be a nonempty list of nonempty groups")
    n = len(levels[0][0])
    # spans must nest
    for prev, nxt in zip(levels, levels[1:]):
        r = rank_rational(nxt)
        if rank_rational(nxt + prev) != r:
            raise FlagNotIncreasing("span chain does not nest")
    if rank_rational(levels[-1]) != n:
        raise FlagNotIncreasing("final span is not all of R^n")

    basis: list = []
    seen: list = []
    for grp in levels:
        seen = seen + grp
        sat = saturated_span_basis(seen)
        r = len(sat)
        if r == len(basis):
            continue
        # write the current partial basis in coordinates of the saturated one
        xrows = []
        for p in basis:
            coeffs = _solve_in_rows(sat, p)
            xrows.append(coeffs)
        newrows = _complete_unimodular(tuple(xrows), r)
        for row in newrows:
            w = tuple(sum(q * s[k] for q, s in zip(row, sat)) for k in range(n))
            for x in w:
                if x != 0:
                    if x < 0:
                        w = tuple(-y for y in w)
                    break
            basis.append(w)
    return basis


def _solve_in_rows(rows, target) -> tuple:
    # coefficients x with x . rows = target; must come out integral here
    a = transpose(tuple(rows))
    sol = _solve_rect(a, target)
    out = []
    for f in sol:
        if f.denominator != 1:
            raise FlagNotIncreasing("prefix vector not integral over the saturation")
        out.append(f.numerator)
    return tuple(out)


def _solve_rect(a: Mat, b) -> QVec:
    """Exact solve of a (possibly tall) consistent system; free variables are 0."""
    nc = len(a[0])
    reduced, pivots, rest = row_reduce([(*row, bi) for row, bi in zip(a, b)], nc)
    if any(row[nc] for row in rest):
        raise FlagNotIncreasing("inconsistent system")
    sol = [Fraction(0)] * nc
    for row, col in zip(reduced, pivots):
        sol[col] = row[nc]
    return tuple(sol)


@lru_cache(maxsize=64)
def _complete_unimodular(xrows: tuple, r: int) -> tuple:
    """Rows completing the primitive row set ``xrows`` to a unimodular r x r matrix.

    Memoized: the adapted bases of a whole region need only a few of them.
    """
    k = len(xrows)
    if k == 0:
        return identity(r)
    u, d, v = smith_normal_form(xrows)
    for i in range(k):
        if d[i][i] != 1:
            raise FlagNotIncreasing("prefix is not saturated in the next level")
    return invert_unimodular(v)[k:r]


if __name__ == "__main__":
    import doctest

    doctest.testmod()
