"""Exact integer and rational linear algebra over lattices.

One integer normal form, ``column_hermite``, the only unimodular pass:
its transform is a flag-adapted Z-basis, its diagonal gives determinants
and the coset representatives of a cone's box points.  On top of it sit
simplicial-cone multiplicities, box points and a unimodular-basis-inside-
a-cone subdivision algorithm.  Everything is computed with arbitrary-
precision integers and ``fractions.Fraction``; no floating point enters
this module.

Every elimination over Q runs here, fraction-free on integer rows: one
step, ``clear``, combines two rows, and ``_eliminate`` is Gauss-Jordan made
of it.  ``echelon`` gives the RREF cleared of denominators (a canonical
span key), ``back_substitute`` solves its pivots and ``rank_rational``
counts them; ``solve_integer`` returns A^-1 B as an integer matrix over
one denominator.  Box points use it for the scaled inverse d B^-1 of a
cone's generators: each point and its coordinates then come from integer
products and one reduction mod d, and a Fraction is made once per
coordinate.
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


def clear(row, prow, col: int) -> list:
    """primitive(p*row - row[col]*prow) with p = prow[col]: row cleared at col.

    For p > 0 the result is a positive multiple of the combination, so a
    strict row keeps its sense.
    """
    p, f = prow[col], row[col]
    return primitive([p * x - f * y for x, y in zip(row, prow)])


def _eliminate(work: list, ncols: int) -> list:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots are taken in the first ncols columns, each pivot row moved up to
    its rank, and every other row cleared in the pivot column (clear).  A
    row scaled by a nonzero number spans the same line, so no Fraction is
    ever made.  Returns the pivot columns.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        prow = work[piv]
        work[piv], work[rank] = work[rank], prow
        for r, row in enumerate(work):
            if row[col] and r != rank:
                work[r] = clear(row, prow, col)
        pivots.append(col)
    return pivots


def echelon(rows, ncols: int) -> tuple:
    """Reduced row echelon form of integer rows, cleared of denominators.

    Pivots are taken in the first ncols columns; columns from ncols on ride
    along as right-hand sides.  Returns (pivot rows, pivot columns,
    leftover rows).  Each pivot row is a primitive integer tuple with a
    positive pivot and zero at every other pivot column: its RREF row
    times the lcm of that row's denominators, so rows with one span get
    one result.  The leftover rows are zero in the first ncols columns.

    Examples
    --------
    >>> echelon([(2, 4, 6), (1, 1, 1), (3, 5, 7)], 2)
    ([(1, 0, -1), (0, 1, 2)], [0, 1], [[0, 0, 0]])
    """
    work = [list(row) for row in rows]
    pivots = _eliminate(work, ncols)
    out = [tuple(primitive(r if r[c] > 0 else [-x for x in r])) for r, c in zip(work, pivots)]
    return out, pivots, work[len(pivots) :]


def back_substitute(rows, pivots, values) -> list:
    """values with each pivot column solved from its row: row . x = 0.

    rows and pivots are echelon's; values gives every column that is not a
    pivot, a constant column as the value 1.  A pivot row is zero at every
    other pivot column, so the pivots are solved in any order.
    """
    x = list(values)
    for row, p in zip(rows, pivots):
        x[p] = Fraction(-sum(a * v for j, (a, v) in enumerate(zip(row, x)) if a and j != p), row[p])
    return x


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
        n = len(gens[0])
        if len(gens) != n:
            raise DegenerateCone(f"{len(gens)} generators in dimension {n}: a simplicial cone has {n}")

    @property
    def dim(self) -> int:
        return len(self.generators[0])

    def generator_matrix(self) -> Mat:
        """Generators as columns."""
        return transpose(self.generators)


def cone_multiplicity(c: SimplicialCone) -> int:
    """|det| of the generator matrix; DegenerateCone if the generators are dependent."""
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


def integral_basis_in_cone(c: SimplicialCone, trace: list) -> list:
    """A Z-basis of the ambient lattice whose vectors all lie inside the cone.

    Iterative subdivision: pick a fractional lattice point v = sum t_i g_i
    with t_i in [0,1), make v/content primitive, swap it for one generator,
    and recurse into the subdivided cone of smallest multiplicity.  The
    multiplicity strictly decreases each round (its trail is appended to
    ``trace``), so the loop stops at a unimodular cone whose generators
    are the answer.

    Ties between subdivisions are broken by lexicographic minimality of the
    sorted generator matrix.  Each candidate is scored by Cramer's rule:
    swapping g_i for w = v / content(v) scales the determinant by
    t_i / content(v), so its multiplicity is mult * t_i / content(v).
    """
    gens = list(c.generators)
    mult = cone_multiplicity(c)
    while True:
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
