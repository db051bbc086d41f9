"""Basic holomorphic (orbi-)disc data: indices, areas, virtual dimensions.

Descriptors live at the homology level: multiplicities over facets plus a
list of twisted sectors for interior orbifold marked points.  Indices and
areas are class functions, so nothing finer is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .stacky import StackyModel, enumerate_box, sector_ell, sector_ell_form


@dataclass(frozen=True)
class DiscDescriptor:
    smooth_mults: tuple  # one nonnegative integer per facet
    orb_points: tuple = ()  # BoxElement per interior orbifold marked point
    k_boundary: int = 0
    l_interior_smooth: int = 0

    def __post_init__(self):
        if any(d < 0 for d in self.smooth_mults):
            raise InputError("facet multiplicities must be nonnegative")
        if self.k_boundary < 0 or self.l_interior_smooth < 0:
            raise InputError("marked point counts must be nonnegative")

    @property
    def interior_marked(self) -> int:
        return len(self.orb_points) + self.l_interior_smooth


@dataclass(frozen=True)
class DiscClass:
    """Homology-level generator with boundary vector and affine area form."""

    kind: str  # "facet" or "sector"
    index: int  # facet index, or position in the sector list
    boundary: tuple
    area_gradient: tuple
    area_constant: Fraction
    mu_de: int
    mu_cw: Fraction

    def area_at(self, u) -> Fraction:
        return (
            sum(Fraction(x) * g for x, g in zip(u, self.area_gradient)) + self.area_constant
        )


def basic_smooth_discs(m: StackyModel) -> list:
    """One Maslov-two disc per facet: the unit multiplicity descriptors."""
    n = len(m.facets)
    return [
        DiscDescriptor(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)
    ]


def basic_orbi_discs(m: StackyModel) -> list:
    """One descriptor per twisted sector, with a single orbifold marked point."""
    n = len(m.facets)
    zero = tuple(0 for _ in range(n))
    return [DiscDescriptor(zero, (s,)) for s in enumerate_box(m)]


def maslov_de(m: StackyModel, d) -> int:
    """Desingularized Maslov index.

    For a descriptor: 2 * sum of facet multiplicities (orbifold points carry
    fractional coordinates in [0,1) and contribute nothing).  Passing a list
    of raw intersection data (k_ij, m_i) instead computes 2 * sum floor(k/m),
    the general local-multiplicity form of the index.
    """
    if isinstance(d, DiscDescriptor):
        return 2 * sum(d.smooth_mults)
    total = 0
    for k, order in d:
        if order < 1:
            raise InputError("isotropy order must be a positive integer")
        total += k // order
    return 2 * total


def area(m: StackyModel, d: DiscDescriptor, u) -> Fraction:
    """Symplectic area (in units of 2 pi) at an interior fiber, exact."""
    m.require_interior(u)
    total = sum(
        (mult * m.ell(j, u) for j, mult in enumerate(d.smooth_mults)), Fraction(0)
    )
    total += sum((sector_ell(m, s, u) for s in d.orb_points), Fraction(0))
    return total


def virtual_dimension(m: StackyModel, d: DiscDescriptor) -> int:
    """n + mu_de + k + 2l - 3 with l counting all interior marked points."""
    return m.dim + maslov_de(m, d) + d.k_boundary + 2 * d.interior_marked - 3


def h2_generators(m: StackyModel) -> list:
    """Relative homology generators: one class per facet and per sector."""
    out = []
    for j, f in enumerate(m.facets):
        b, c = m.ell_form(j)
        out.append(
            DiscClass(
                kind="facet",
                index=j,
                boundary=f.stacky_vector,
                area_gradient=b,
                area_constant=c,
                mu_de=2,
                mu_cw=Fraction(2),
            )
        )
    for i, s in enumerate(enumerate_box(m)):
        g, c = sector_ell_form(m, s)
        out.append(
            DiscClass(
                kind="sector",
                index=i,
                boundary=s.nu,
                area_gradient=g,
                area_constant=c,
                mu_de=0,
                mu_cw=2 * s.iota,
            )
        )
    return out
