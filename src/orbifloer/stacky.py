"""Labeled moment polytopes, their stacky fans, and twisted sectors.

A model is a list of facets (primitive inward normal, positive integer
label, rational offset).  The polytope is {u : <u, label*normal> >= offset};
validation computes vertices exactly, in integers over one common
denominator of the offsets, rejects unbounded, non-simple, or hollow
input, and records one simplicial cone of stacky vectors per vertex.

Twisted sectors are the nonzero lattice points in the fundamental cells of
those cones, carried with their fractional coordinates, group order, and
degree shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul

from . import lattice
from .errors import (
    EmptyInterior,
    InputError,
    NonPrimitiveNormal,
    NotSimple,
    PointNotInterior,
    Unbounded,
)


@dataclass(frozen=True)
class Facet:
    normal: tuple  # primitive
    label: int
    offset: Fraction

    @property
    def stacky_vector(self) -> tuple:
        return tuple(self.label * x for x in self.normal)


@dataclass(frozen=True)
class BoxElement:
    """Twisted sector: nonzero nu = sum c_i b_{i_k}, all c_i in [0,1)."""

    nu: tuple
    cone_index: int  # first top cone containing nu
    facet_indices: tuple  # generators of that cone
    coeffs: tuple  # Fractions, aligned with facet_indices
    support: tuple  # facet indices with nonzero coefficient (minimal face)
    order: int  # order of nu in the local group
    iota: Fraction  # degree shift

    def __str__(self):
        return f"nu={self.nu} coeffs={tuple(str(c) for c in self.coeffs)} iota={self.iota}"


@dataclass(frozen=True)
class StackyModel:
    dim: int
    facets: tuple
    vertices: tuple  # rational points, sorted
    cones: tuple  # SimplicialCone per vertex, facet_indices recorded

    def __hash__(self):
        # the model keys the per-model caches (enumerate_box, region's constraint
        # table), thousands of lookups per region: hash its nested tuples once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.dim, self.facets, self.vertices, self.cones))
            object.__setattr__(self, "_hash", h)
        return h

    def ell_form(self, j: int) -> tuple:
        """Affine form of ell_j as (gradient vector, constant): ell_j(u) = <u,b_j> + const."""
        return (self.facets[j].stacky_vector, -Fraction(self.facets[j].offset))

    def ell(self, j: int, u) -> Fraction:
        b, c = self.ell_form(j)
        return sum(Fraction(x) * g for x, g in zip(u, b)) + c

    def is_interior(self, u) -> bool:
        """Whether every ell_j(u) > 0, tested in integers.

        u and the offsets are put over one common denominator d, so
        d * ell_j(u) > 0 compares an integer dot product with an integer.
        """
        uu = [Fraction(x) for x in u]
        d = lcm(*(x.denominator for x in uu), *(f.offset.denominator for f in self.facets))
        v = [x.numerator * (d // x.denominator) for x in uu]
        return all(
            f.label * sum(map(mul, v, f.normal)) > f.offset.numerator * (d // f.offset.denominator)
            for f in self.facets
        )

    def require_interior(self, u):
        if not self.is_interior(u):
            raise PointNotInterior(f"{tuple(str(Fraction(x)) for x in u)} is not interior")


def _field(row, where: str, key: str, parse, default=None):
    """A parsed field of a model description; InputError naming the field."""
    x = row.get(key, default) if isinstance(row, dict) else None
    if x is None:
        raise InputError(f"model {where}{key}: missing")
    try:
        return parse(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError(f"model {where}{key}: cannot read {x!r}") from None


def _as_fraction(x) -> Fraction:
    if not isinstance(x, (str, int, Fraction)):
        raise TypeError(f"expected rational, got {type(x).__name__}")
    return Fraction(x)


def _integer(x) -> int:
    """2, "2" and 2.0 read as 2; 2.5 and "two" raise ValueError."""
    q = Fraction(str(x))
    if q.denominator != 1:
        raise ValueError(f"{x!r} is not an integer")
    return q.numerator


def _integers(x) -> tuple:
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"expected a list, got {type(x).__name__}")
    return tuple(map(_integer, x))


def preset_description(name: str) -> dict:
    """Expand a preset string like wp:1,3,5 / teardrop:3 / interval:2,2 / square:1,1,1,1."""
    kind, _, arg = name.partition(":")
    try:
        args = [int(x) for x in arg.split(",")] if arg else []
    except ValueError:
        raise InputError(f"preset arguments must be integers: {name!r}")
    if kind in ("wp", "weighted_projective"):
        return {"preset": "weighted_projective", "weights": args}
    if kind == "teardrop":
        if len(args) != 1 or args[0] < 2:
            raise InputError("teardrop preset needs one integer parameter >= 2")
        a = args[0]
        return {
            "dim": 1,
            "facets": [
                {"normal": [1], "label": a, "offset": "-1"},
                {"normal": [-1], "label": 1, "offset": "-1"},
            ],
        }
    if kind == "interval":
        if len(args) != 2 or min(args) < 1:
            raise InputError("interval preset needs two positive labels")
        c1, c2 = args
        return {
            "dim": 1,
            "facets": [
                {"normal": [1], "label": c1, "offset": "0"},
                {"normal": [-1], "label": c2, "offset": str(-c2)},
            ],
        }
    if kind == "square":
        if len(args) != 4 or min(args) < 1:
            raise InputError("square preset needs four positive labels")
        c1, c2, c3, c4 = args
        return {
            "dim": 2,
            "facets": [
                {"normal": [1, 0], "label": c1, "offset": "0"},
                {"normal": [0, 1], "label": c2, "offset": "0"},
                {"normal": [-1, 0], "label": c3, "offset": str(-c3)},
                {"normal": [0, -1], "label": c4, "offset": str(-c4)},
            ],
        }
    raise InputError(f"unknown preset {name!r}")


def _weighted_projective_facets(weights) -> list:
    if len(weights) < 2 or weights[0] != 1 or any(w < 1 for w in weights):
        raise InputError("weights must be (1, a_1, ..., a_n) with positive integers")
    tail = list(weights[1:])
    n = len(tail)
    g = 0
    for a in tail:
        g = gcd(g, a)
    facets = [Facet(tuple(-a // g for a in tail), g, Fraction(-1))]
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        facets.append(Facet(e, 1, Fraction(-1)))
    return facets


def build_model(description) -> StackyModel:
    """Validate a polytope description (dict or preset string) into a StackyModel."""
    if isinstance(description, str):
        description = preset_description(description)
    if not isinstance(description, dict):
        raise InputError("model description must be a dict or preset string")
    if "preset" in description:
        if description["preset"] != "weighted_projective":
            raise InputError(f"unknown preset {description['preset']!r}")
        facets = _weighted_projective_facets(_field(description, "", "weights", _integers))
    else:
        raw = _field(description, "", "facets", list)
        n = _field(description, "", "dim", _integer)
        facets = []
        for k, f in enumerate(raw):
            where = f"facets[{k}]."
            normal = _field(f, where, "normal", _integers)
            label = _field(f, where, "label", _integer, default=1)
            offset = _field(f, where, "offset", _as_fraction)
            if len(normal) != n:
                raise InputError("normal has wrong dimension")
            if label < 1:
                raise InputError("labels must be positive integers")
            if not lattice.is_primitive(normal):
                raise NonPrimitiveNormal(f"normal {normal} is not primitive")
            facets.append(Facet(normal, label, offset))
    n = len(facets[0].normal) if facets else 0
    if n == 0 or len(facets) < n + 1:
        raise EmptyInterior("need at least n+1 facets in dimension n")

    b = [f.stacky_vector for f in facets]
    # the offsets over one denominator: offset_j = lam[j] / den
    den = lcm(*(f.offset.denominator for f in facets))
    lam = [int(f.offset * den) for f in facets]
    m = len(facets)

    if lattice.rank_rational(b) < n:
        raise Unbounded("normals do not span; the polytope recedes along their common kernel")
    _reject_recession_rays(b, n)

    # exact vertex enumeration over all n-subsets of facets: the vertex is
    # x / (d * den), and each slack times d * den > 0 is an integer
    vertex_map: dict = {}
    for subset in combinations(range(m), n):
        solved = lattice.solve_integer([b[j] for j in subset], [(lam[j],) for j in subset])
        if solved is None:
            continue
        column, d = solved
        x = [row[0] for row in column]
        slacks = [sum(xi * g for xi, g in zip(x, b[j])) - lam[j] * d for j in range(m)]
        if any(s < 0 for s in slacks):
            continue
        u = tuple(Fraction(xi, d * den) for xi in x)
        active = tuple(j for j in range(m) if slacks[j] == 0)
        if len(active) > n:
            raise NotSimple(f"vertex {u} lies on {len(active)} facets")
        vertex_map[u] = active
    if not vertex_map:
        raise EmptyInterior("no vertices: the constraint system is infeasible or degenerate")

    supporting = {j for active in vertex_map.values() for j in active}
    missing = sorted(set(range(m)) - supporting)
    if missing:
        raise NotSimple(f"facet inequality {missing[0]} does not support the polytope")

    # interior witness: the vertex centroid must satisfy everything strictly.
    # Its slack on a facet is the mean of the vertices' slacks, all >= 0, so
    # it fails exactly on a facet that holds every vertex.
    if set.intersection(*map(set, vertex_map.values())):
        raise EmptyInterior("polytope has no interior point")
    verts = sorted(vertex_map)

    cones = []
    for v in verts:
        active = vertex_map[v]
        cones.append(
            lattice.SimplicialCone(tuple(b[j] for j in active), facet_indices=active)
        )
    return StackyModel(dim=n, facets=tuple(facets), vertices=tuple(verts), cones=tuple(cones))


def _reject_recession_rays(b, n):
    """Unbounded iff some nonzero d has <d, b_j> >= 0 for all j.

    The recession cone is pointed once the normals span; any nonzero member
    then lies on an extreme ray cut out by n-1 of the constraints, so it
    suffices to scan kernels of (n-1)-subsets.
    """
    m = len(b)
    for subset in combinations(range(m), n - 1):
        rows = [b[j] for j in subset]
        if lattice.rank_rational(rows) != n - 1:
            continue
        d = _rational_kernel_vector(rows, n)
        for cand in (d, tuple(-x for x in d)):
            if all(sum(x * g for x, g in zip(cand, bj)) >= 0 for bj in b):
                raise Unbounded(f"direction {cand} recedes")


def _rational_kernel_vector(rows, n):
    """The primitive integer vector, up to sign, orthogonal to n-1 independent rows."""
    reduced, pivots, _ = lattice.echelon(rows, n)
    (free,) = set(range(n)) - set(pivots)
    x = lattice.back_substitute(reduced, pivots, [int(j == free) for j in range(n)])
    # with an entry 1, the cleared vector is already primitive
    return tuple(lattice.cleared(x))


# ---------------------------------------------------------------------------


def enumerate_box(m: StackyModel) -> list:
    """All twisted sectors (nonzero box elements), deduplicated across cones.

    Each sector is attributed to the first top cone containing it; its
    minimal face is recorded via the support of the coefficients.  Within a
    cone, sectors are ordered by coefficient tuple, so e.g. the one-cone
    sectors come out in the order 1/m, 2/m, ... of their first coordinate.
    """
    return list(_box_cached(m))


@lru_cache(maxsize=None)
def _box_cached(m: StackyModel) -> tuple:
    # scenario machinery asks for the box thousands of times per region
    seen: dict = {}
    out = []
    for ci, cone in enumerate(m.cones):
        entries = []
        for v, t in lattice.box_points(cone):
            entries.append((t, v))
        entries.sort()
        for t, v in entries:
            if v in seen:
                continue
            denom = lcm(*(x.denominator for x in t))
            support = tuple(
                fi for fi, c in zip(cone.facet_indices, t) if c != 0
            )
            elem = BoxElement(
                nu=v,
                cone_index=ci,
                facet_indices=cone.facet_indices,
                coeffs=t,
                support=support,
                order=denom,
                iota=sum(t, Fraction(0)),
            )
            seen[v] = elem
            out.append(elem)
    return tuple(out)


def sector_ell_form(m: StackyModel, s: BoxElement) -> tuple:
    """Affine area form of a sector: ell_nu(u) = <u, nu> + const, exact."""
    const = -sum(
        c * Fraction(m.facets[fi].offset) for c, fi in zip(s.coeffs, s.facet_indices)
    )
    return (s.nu, const)


def sector_ell(m: StackyModel, s: BoxElement, u) -> Fraction:
    nu, const = sector_ell_form(m, s)
    return sum(Fraction(x) * g for x, g in zip(u, nu)) + const
