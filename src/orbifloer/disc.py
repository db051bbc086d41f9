"""Basic holomorphic (orbi-)discs bounded by a torus fiber, as H2 classes.

A smooth basic disc is one facet's class and a basic orbi-disc, with one
interior orbifold marked point, is one twisted sector's class: the paper's
two one-to-one correspondences.  Each class carries its boundary vector,
its affine area form, its two Maslov indices and its virtual dimension;
indices and areas are class functions, so nothing finer is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .stacky import StackyModel, enumerate_box, sector_ell_form


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

    @property
    def virtual_dim(self) -> int:
        """n + mu_de + 2 * (interior marked points) - 3, so n - 1 for a basic class."""
        return len(self.boundary) + self.mu_de + 2 * (self.kind == "sector") - 3

    def area_at(self, u) -> Fraction:
        return sum(Fraction(x) * g for x, g in zip(u, self.area_gradient)) + self.area_constant


def h2_generators(m: StackyModel) -> list:
    """Relative homology generators: one class per facet, then one per sector."""
    facets = [
        DiscClass("facet", j, f.stacky_vector, *m.ell_form(j), mu_de=2, mu_cw=Fraction(2))
        for j, f in enumerate(m.facets)
    ]
    sectors = [
        DiscClass("sector", i, s.nu, *sector_ell_form(m, s), mu_de=0, mu_cw=2 * s.iota)
        for i, s in enumerate(enumerate_box(m))
    ]
    return facets + sectors
