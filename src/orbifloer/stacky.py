"""Labeled moment polytopes, their stacky fans, and twisted sectors.

A model is a list of facets (primitive inward normal, positive integer
label, rational offset).  The polytope is {u : <u, label*normal> >= offset};
validation computes vertices exactly, rejects unbounded, non-simple, or
hollow input, and records one simplicial cone of stacky vectors per vertex.

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

from . import lattice
from .errors import (
    DegenerateCone,
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
        # the model keys the per-model caches (enumerate_box, region._model_rows),
        # thousands of lookups per region: hash its nested tuples once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.dim, self.facets, self.vertices, self.cones))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def stacky_vectors(self) -> tuple:
        return tuple(f.stacky_vector for f in self.facets)

    def ell_form(self, j: int) -> tuple:
        """Affine form of ell_j as (gradient vector, constant): ell_j(u) = <u,b_j> + const."""
        return (self.facets[j].stacky_vector, -Fraction(self.facets[j].offset))

    def ell(self, j: int, u) -> Fraction:
        b, c = self.ell_form(j)
        return sum(Fraction(x) * g for x, g in zip(u, b)) + c

    def is_interior(self, u) -> bool:
        return all(self.ell(j, u) > 0 for j in range(len(self.facets)))

    def require_interior(self, u):
        if not self.is_interior(u):
            raise PointNotInterior(f"{tuple(str(Fraction(x)) for x in u)} is not interior")


def _as_fraction(x) -> Fraction:
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise InputError(f"expected rational, got {type(x).__name__}")


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
        facets = _weighted_projective_facets(list(description["weights"]))
    else:
        try:
            raw = description["facets"]
            n = int(description["dim"])
        except KeyError as e:
            raise InputError(f"missing model field {e}")
        facets = []
        for f in raw:
            normal = tuple(int(x) for x in f["normal"])
            label = int(f.get("label", 1))
            offset = _as_fraction(f["offset"])
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
    lam = [Fraction(f.offset) for f in facets]
    m = len(facets)

    if lattice.rank_rational(b) < n:
        raise Unbounded("normals do not span; the polytope recedes along their common kernel")
    _reject_recession_rays(b, n)

    # exact vertex enumeration over all n-subsets of facets
    vertex_map: dict = {}
    for subset in combinations(range(m), n):
        a = tuple(b[j] for j in subset)
        rhs = tuple(lam[j] for j in subset)
        u = lattice.solve_rational(a, rhs)
        if u is None:
            continue
        slacks = [sum(Fraction(x) * g for x, g in zip(u, b[j])) - lam[j] for j in range(m)]
        if any(s < 0 for s in slacks):
            continue
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

    # interior witness: vertex centroid must satisfy everything strictly
    verts = sorted(vertex_map)
    k = len(verts)
    centroid = tuple(sum(v[i] for v in verts) / k for i in range(n))
    for j in range(m):
        if sum(centroid[i] * b[j][i] for i in range(n)) - lam[j] <= 0:
            raise EmptyInterior("polytope has no interior point")

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
    if n == 1:
        for d in ((1,), (-1,)):
            if all(d[0] * bj[0] >= 0 for bj in b):
                raise Unbounded(f"direction {d} recedes")
        return
    for subset in combinations(range(m), n - 1):
        rows = [b[j] for j in subset]
        if lattice.rank_rational(rows) != n - 1:
            continue
        d = _rational_kernel_vector(rows, n)
        for cand in (d, tuple(-x for x in d)):
            if all(sum(x * g for x, g in zip(cand, bj)) >= 0 for bj in b):
                raise Unbounded(f"direction {cand} recedes")


def _rational_kernel_vector(rows, n):
    """One nonzero integer vector orthogonal to n-1 independent rows."""
    _, d, v = lattice.smith_normal_form(lattice.mat(rows))
    # columns of V beyond the rank span the kernel of (rows as a map)
    r = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    col = tuple(v[i][r] for i in range(n))
    assert any(x != 0 for x in col)
    return col


# ---------------------------------------------------------------------------


def local_group_order(m: StackyModel, cone_index: int) -> int:
    """Order of the local group at a top cone: |det| of its stacky generators."""
    return lattice.cone_multiplicity(m.cones[cone_index])


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
