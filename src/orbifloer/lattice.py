"""Exact integer and rational linear algebra over lattices.

One integer normal form, ``column_hermite``: its transform is a
flag-adapted lattice basis, its diagonal gives determinants and the coset
representatives of a cone's box points.  On top of it sit simplicial-cone
multiplicities, box points and a unimodular-basis-inside-a-cone
subdivision algorithm.  Everything is computed with arbitrary-precision
integers and ``fractions.Fraction``; no floating point enters this module.

Every rational elimination (echelon bases, ranks, square solves) runs
through one fraction-free routine, ``_eliminate``.  ``row_reduce`` divides,
once per entry at the end; ``solve_integer`` does not divide at all, and
returns A^-1 B as an integer matrix over one denominator.  Box points use
it for the scaled inverse d B^-1 of a cone's generators: each point and
its coordinates then come from integer products and one reduction mod d,
and a Fraction is made once per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .errors import DegenerateCone

# Vectors are tuples of ints (lattice) or Fractions (rational); matrices are
# tuples of row tuples.  Helpers below keep everything immutable.

Vec = tuple  # tuple[int, ...]
Mat = tuple  # tuple[tuple[int, ...], ...]


def vec(coords) -> Vec:
    return tuple(int(c) for c in coords)


@lru_cache(maxsize=None)
def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


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
    """Determinant of a square integer matrix, exact.

    The signed product of the diagonal of its column_hermite form.

    Examples
    --------
    >>> det_int(((1, 0), (1, 2)))
    2
    >>> det_int(((3, 0), (0, 5)))
    15
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    h, _, sign = column_hermite(m, n)
    # a row without a pivot is the first to leave a zero on the diagonal
    for i in range(n):
        sign *= h[i][i]
    return sign


def column_hermite(rows, n: int) -> tuple:
    """Lower echelon form H = M V of integer rows M, V unimodular.

    When row i is reached with k pivots placed, Euclid steps on columns
    (swaps and subtractions) bring its entries from column k on to one
    gcd at column k, made positive; each entry of the row left of that
    pivot p then drops to its centred residue in (-p/2, p/2] by
    subtracting multiples of column k.  Earlier rows are zero from column
    k on, so no step touches them.  For M of rank n this H is unique.

    Returns (H, W, sign): W = V^-1, kept by the inverse row operations,
    and sign = det V.  M = H W, so each row of H is its row of M in the
    basis W of Z^n.  The rows of M up to any row lie in the first r
    columns of H, r their rank, so the first r rows of W are a Z-basis of
    their span met with Z^n: stacked level by level, W is adapted to the
    levels' flag.

    Examples
    --------
    >>> column_hermite(((3, 5), (1, 7)), 2)
    ([[1, 0], [-5, 16]], [[3, 5], [1, 2]], 1)
    """
    h = [list(row) for row in rows]
    w = [list(row) for row in identity(n)]
    sign = 1
    k = 0
    for i, row in enumerate(h):
        if k == n:
            break
        low = h[i:]

        def sub(j, q):
            # column j -= q * column k; row k of W += q * row j
            if q:
                for r in low:
                    r[j] -= q * r[k]
                w[k] = [a + q * b for a, b in zip(w[k], w[j])]

        while True:
            nonzero = [j for j in range(k, n) if row[j]]
            if not nonzero:
                break
            j = min(nonzero, key=lambda c: abs(row[c]))
            if j != k:
                for r in low:
                    r[j], r[k] = r[k], r[j]
                w[j], w[k] = w[k], w[j]
                sign = -sign
            if row[k] < 0:
                for r in low:
                    r[k] = -r[k]
                w[k] = [-a for a in w[k]]
                sign = -sign
            if not any(row[k + 1 :]):
                break
            for j in range(k + 1, n):
                sub(j, _centred_quotient(row[j], row[k]))
        if not row[k]:
            continue
        for j in range(k):
            sub(j, _centred_quotient(row[j], row[k]))
        k += 1
    return h, w, sign


def _centred_quotient(x: int, p: int) -> int:
    # q with x - q * p in (-p/2, p/2], for p > 0
    q, r = divmod(x, p)
    return q + 1 if 2 * r > p else q


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


def solve_integer(a: Mat, b: Mat) -> tuple | None:
    """(X, d) with A X = d B, X integer and d > 0; None if A is singular.

    A is a square integer matrix and B integer rows beside it, with any
    number of columns.  One fraction-free elimination of the rows [A | B]
    (_eliminate) leaves row i as (p_i e_i | r_i), so row i of A^-1 B is
    r_i / p_i: d is the lcm of the |p_i|, and no Fraction is made.

    Examples
    --------
    >>> solve_integer(((3, 5), (1, 2)), ((1, 0), (0, 1)))
    ([[2, -5], [-1, 3]], 1)
    >>> solve_integer(((2, 0), (0, 3)), ((1,), (1,)))
    ([[3], [2]], 6)
    """
    n = len(a)
    work = [[*row, *rhs] for row, rhs in zip(a, b)]
    if len(_eliminate(work, n)) < n:
        return None
    d = lcm(*(row[i] for i, row in enumerate(work)))
    return [[e * (d // row[i]) for e in row[n:]] for i, row in enumerate(work)], d


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


def cone_multiplicity(c: SimplicialCone) -> int:
    """|det| of the generator matrix; DegenerateCone if the generators are dependent."""
    if len(c.generators) != c.dim:
        raise DegenerateCone("cone is not full-dimensional")
    d = det_int(c.generator_matrix())
    if d == 0:
        raise DegenerateCone("generators are linearly dependent")
    return abs(d)


def box_points(c: SimplicialCone) -> list[tuple]:
    """All nonzero lattice points v = sum t_i g_i with every t_i in [0, 1).

    Returns (v, t) pairs sorted by v; there are exactly multiplicity-1 of
    them.  One column_hermite pass H = B V of the generator matrix gives
    the multiplicity, the product of its diagonal, and the coset
    representatives: H spans the generators' lattice and is lower
    triangular with a positive diagonal, so reducing a point top to bottom
    by the columns of H shows that the points x with 0 <= x_i < H_ii are
    one per coset.  With adj = d B^-1 integer (solve_integer), the
    fractional coordinates of x are r / d for r = adj x mod d, and
    v = B r / d exactly; no search box is scanned and no Fraction is
    summed.
    """
    n = c.dim
    if len(c.generators) != n:
        raise DegenerateCone("cone is not full-dimensional")
    b = c.generator_matrix()
    h, _, _ = column_hermite(b, n)
    diag = [h[i][i] for i in range(n)]
    if not all(diag):
        raise DegenerateCone("generators are linearly dependent")
    if max(diag) == 1:
        return []
    adj, d = solve_integer(b, identity(n))
    out = []
    for x in product(*map(range, diag)):
        if not any(x):
            continue
        r = [sum(a * xi for a, xi in zip(row, x)) % d for row in adj]
        v = tuple(sum(g * ri for g, ri in zip(row, r)) // d for row in b)
        out.append((v, tuple(Fraction(ri, d) for ri in r)))
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
    sorted generator matrix.  Each candidate is scored by Cramer's rule:
    swapping g_i for w = v / content(v) scales the determinant by
    t_i / content(v), so its multiplicity is mult * t_i / content(v).
    """
    gens = list(c.generators)
    mult = cone_multiplicity(c)
    while True:
        if trace is not None:
            trace.append(mult)
        if mult == 1:
            return sorted(vec(g) for g in gens)
        best = None
        for v, t in box_points(SimplicialCone(tuple(gens))):
            d = content(v)
            w = tuple(x // d for x in v)
            for i, ti in enumerate(t):
                if not ti:
                    continue
                submult = mult * ti.numerator // (ti.denominator * d)
                if best is not None and submult > best[0][0]:
                    continue
                sub = gens[:i] + [w] + gens[i + 1 :]
                key = (submult, tuple(sorted(sub)))
                if best is None or key < best[0]:
                    best = (key, sub)
        # a nonzero box point always exists when mult > 1
        (mult, _), gens = best
