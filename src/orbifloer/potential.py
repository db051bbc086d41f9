"""Leading-order potentials at a torus fiber and critical-point residuals.

A fiber point u contributes one term T^{area} y^{boundary} per facet, and a
bulk deformation adds one term per activated twisted sector.  Only the
leading order is built here: higher corrections have no closed formula, and
the downstream solvability pipeline never needs them.

Residuals are measured with the logarithmic gradient (y_i d/dy_i), which is
the coordinate-free notion in the y = e^x chart.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InputError,
    NoConvergence,
    NonPositiveBulkExponent,
    ZeroCoordinate,
)
from .series import (
    QC,
    LaurentPoly,
    NovikovScalar,
    c_is_zero,
    render_coeff,
)
from .stacky import StackyModel, build_model, enumerate_box, sector_ell


@dataclass(frozen=True)
class BulkEntry:
    """One activated sector: coefficient times T^exponent."""

    nu: tuple  # lattice vector of a Box' element
    coeff: object  # QC or SymLin
    exponent: Fraction

    def __post_init__(self):
        if self.exponent <= 0:
            raise NonPositiveBulkExponent(
                f"bulk exponent {self.exponent} at {self.nu} must be positive"
            )


@dataclass(frozen=True)
class BulkParam:
    """Bulk deformation data keyed by sector.

    Sectors absent from ``entries`` carry the zero deformation.  There is
    no divisor part: toric divisor terms do not enter the leading-order
    formulas, so a bulk file's divisor rows are checked and then dropped.
    """

    entries: tuple = ()

    @staticmethod
    def zero() -> "BulkParam":
        return BulkParam()

    @staticmethod
    def of(entries) -> "BulkParam":
        out = []
        for nu, coeff, exponent in entries:
            out.append(BulkEntry(tuple(int(x) for x in nu), coeff, Fraction(exponent)))
        return BulkParam(tuple(out))

    def is_zero(self) -> bool:
        return all(c_is_zero(e.coeff) for e in self.entries)


@dataclass(frozen=True)
class PotentialTerm:
    kind: str  # "facet" or "sector"
    index: int  # facet index, or position in the sector list
    exponent: tuple  # y-exponent vector
    t_exponent: Fraction
    coeff: object

    def __str__(self):
        n = len(self.exponent)
        body = "*".join(
            f"y{i + 1}^{e}" for i, e in enumerate(self.exponent) if e
        )
        c = render_coeff(self.coeff)
        head = f"T^{{{self.t_exponent}}}"
        if c != "1":
            head = f"{c}*{head}"
        return f"{head}*{body}" if body else head


@dataclass(frozen=True)
class PotentialAtFiber:
    """Leading-order potential at a fixed interior fiber point."""

    u: tuple
    poly: LaurentPoly
    terms: tuple  # PotentialTerm provenance, facets first

    def __str__(self):
        return " + ".join(str(t) for t in self.terms) if self.terms else "0"


def smooth_leading_potential(m: StackyModel, u) -> PotentialAtFiber:
    """One term T^{ell_j(u)} y^{b_j} per facet.

    >>> str(smooth_leading_potential(build_model("teardrop:3"), (0,)))
    'T^{1}*y1^3 + T^{1}*y1^-1'
    """
    m.require_interior(u)
    uu = tuple(Fraction(x) for x in u)
    poly = LaurentPoly.zero(m.dim)
    terms = []
    for j, f in enumerate(m.facets):
        b = f.stacky_vector
        a = m.ell(j, uu)
        poly = poly + LaurentPoly.monomial(b, NovikovScalar.of(QC.of(1), a))
        terms.append(PotentialTerm("facet", j, b, a, QC.of(1)))
    return PotentialAtFiber(uu, poly, tuple(terms))


def bulk_leading_potential(m: StackyModel, u, bp: BulkParam) -> PotentialAtFiber:
    """Smooth potential plus c_nu T^{exponent + ell_nu(u)} y^nu per entry.

    Entries with zero coefficient are dropped.  Every entry's lattice vector
    must name an actual twisted sector of the model.
    """
    base = smooth_leading_potential(m, u)
    sectors = enumerate_box(m)
    by_nu = {s.nu: (i, s) for i, s in enumerate(sectors)}
    poly = base.poly
    terms = list(base.terms)
    for e in bp.entries:
        if e.nu not in by_nu:
            raise InputError(f"{e.nu} is not a twisted sector of this model")
        if c_is_zero(e.coeff):
            continue
        i, s = by_nu[e.nu]
        a = e.exponent + sector_ell(m, s, base.u)
        poly = poly + LaurentPoly.monomial(e.nu, NovikovScalar.of(e.coeff, a))
        terms.append(PotentialTerm("sector", i, e.nu, a, e.coeff))
    return PotentialAtFiber(base.u, poly, tuple(terms))


def log_gradient(p: LaurentPoly) -> tuple:
    """Tuple of y_i * d/dy_i applied to p, one entry per variable."""
    return tuple(p.log_derivative(i) for i in range(p.n))


def _positive_t(t_value) -> float:
    t = float(t_value)
    if not math.isfinite(t) or t <= 0:
        raise InputError(f"t_value must be a finite positive number, got {t_value!r}")
    return t


def critical_residual(p, y, t_value: float = 0.5, env: dict | None = None) -> float:
    """max_i |y_i dp/dy_i| at the point (y, T = t_value).

    Accepts a PotentialAtFiber or a bare LaurentPoly.  Symbolic coefficients
    need values in ``env``.  Non-finite y, or T not finite and positive,
    raises InputError.
    """
    poly = p.poly if isinstance(p, PotentialAtFiber) else p
    t = _positive_t(t_value)
    yy = tuple(complex(c) for c in y)
    if not all(cmath.isfinite(c) for c in yy):
        raise InputError(f"residual needs finite coordinates, got {y!r}")
    if any(c == 0 for c in yy):
        raise ZeroCoordinate("residual undefined on a coordinate hyperplane")
    worst = 0.0
    for g in log_gradient(poly):
        worst = max(worst, abs(g.eval_complex(yy, t, env)))
    return worst


# ---------------------------------------------------------------------------
# critical points of a potential at fixed numeric T


@dataclass(frozen=True)
class CriticalPoint:
    y: tuple  # complex coordinates
    residual: float


def _log_system(poly, t, env):
    """The log-gradient and log-Jacobian of poly at T = t, prepared once.

    Returns (exps, grads, jac): poly's exponent vectors, one entry per
    variable, and one (i, k, entry) per k >= i serving both jac[i][k] =
    y_k d/dy_k of grads[i] and jac[k][i] (exact coefficients c*e_i*e_k).
    An entry lists (index into exps, complex coefficient) in terms() order.
    """
    exps = [e for e, _ in poly.terms()]
    where = {e: m for m, e in enumerate(exps)}

    def entry(q):
        return [(where[e], s.eval_complex(t, env)) for e, s in q.terms()]

    gs = log_gradient(poly)
    jac = [(i, k, entry(g.log_derivative(k))) for i, g in enumerate(gs) for k in range(i, poly.n)]
    return exps, [entry(g) for g in gs], jac


def _monomials(exps, y):
    """y^e for each e in exps, multiplied up as LaurentPoly.eval_complex does."""
    zs = [complex(z) for z in y]
    if any(z == 0 for z in zs):
        raise ZeroCoordinate("torus coordinates must be nonzero")
    powers = [{k: z**k for k in set(col)} for z, col in zip(zs, zip(*exps))]
    out = []
    for e in exps:
        mono = 1 + 0j
        for pw, k in zip(powers, e):
            mono *= pw[k]
        out.append(mono)
    return out


def _value(entry, monos):
    """An entry's value, summed term by term in eval_complex's order."""
    total = 0j
    for m, c in entry:
        total += c * monos[m]
    return total


def _newton_polish(system, y, iters=60):
    """Newton in log coordinates x = log y; returns (y, residual).

    The Jacobian entries are y_k d/dy_k of the equations, so the linear
    solve yields a step in x and the update is multiplicative.  That keeps
    every coordinate off zero without any projection step.
    """
    import numpy as np

    exps, grads, jac = system
    yy = np.array(y, dtype=complex)
    for _ in range(iters):
        monos = _monomials(exps, yy)
        fv = np.array([_value(g, monos) for g in grads])
        res = max(abs(v) for v in fv)
        if res < 1e-14:
            break
        jm = np.empty((len(fv), len(fv)), dtype=complex)
        for i, k, entry in jac:
            jm[i, k] = jm[k, i] = _value(entry, monos)
        try:
            dx = np.linalg.solve(jm, -fv)
        except np.linalg.LinAlgError:
            break
        norm = float(np.linalg.norm(dx))
        if norm > 3.0:  # trust region in log scale
            dx *= 3.0 / norm
        yy = yy * np.exp(dx)
        if any(abs(c) > 1e9 or abs(c) < 1e-9 for c in yy):
            break
    monos = _monomials(exps, yy)
    return tuple(complex(c) for c in yy), max(abs(_value(g, monos)) for g in grads)


def companion_roots(coeffs: dict) -> list:
    """Roots off zero of sum_k coeffs[k] * y^k, by companion matrix.

    Keys are integer exponents, possibly negative: the dense vector runs
    from the highest key down to the lowest, so a Laurent polynomial gives
    the roots of its numerator.  Roots with |r| < 1e-8 are dropped.
    """
    import numpy as np

    vec = [coeffs.get(k, 0j) for k in range(max(coeffs), min(coeffs) - 1, -1)]
    return [complex(r) for r in np.roots(vec) if abs(r) >= 1e-8]


def _univariate_critical(system):
    """All nonzero roots of the single log-gradient entry, Newton-polished."""
    exps, (g,), _ = system
    if not g:
        return []
    return [
        CriticalPoint(*_newton_polish(system, (r,)))
        for r in companion_roots({exps[m][0]: c for m, c in g})
    ]


def root_key(y) -> tuple:
    """Sort key of a complex point: coordinates rounded to 9 digits."""
    return tuple((round(c.real, 9), round(c.imag, 9)) for c in y)


def critical_points(
    p,
    t_value: float = 0.5,
    env: dict | None = None,
    seed: int = 0,
    starts: int = 64,
    residual_tol: float = 1e-10,
) -> list:
    """Search for critical points of p at T = t_value.

    One variable: exact-degree companion-matrix roots, then a Newton polish.
    Several variables: deterministic multistart Newton; the returned list
    holds the distinct converged points.  Either way the list is sorted by
    rounded coordinates, so reruns with one seed agree.  T is a positive
    real number: a non-finite or non-positive t_value raises InputError.
    """
    poly = p.poly if isinstance(p, PotentialAtFiber) else p
    system = _log_system(poly, _positive_t(t_value), env)
    if poly.n == 1:
        found = _univariate_critical(system)
    else:
        rng = random.Random(seed)
        found = []
        for _ in range(starts):
            y0 = tuple(
                cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(0.0, 2 * cmath.pi))
                for _ in range(poly.n)
            )
            y, res = _newton_polish(system, y0)
            if res < residual_tol and all(abs(c) > 1e-8 for c in y):
                if all(max(abs(a - b) for a, b in zip(y, q.y)) > 1e-6 for q in found):
                    found.append(CriticalPoint(y, res))
    return sorted(found, key=lambda c: root_key(c.y))


# ---------------------------------------------------------------------------
# central fiber of a weighted projective model


@dataclass(frozen=True)
class CentralFiberCritical:
    weights: tuple  # the tail (a_1..a_n); the model is P(1, a_1..a_n)
    u: tuple
    y: tuple
    lam: float
    residual: float


def wp_central_critical(weights) -> CentralFiberCritical:
    """Positive critical point of the P(1, a_1..a_n) potential at u = 0.

    The gradient system there reads y_i = a_i * lam with
    lam = prod_j y_j^{-a_j}, so lam^{1 + sum a_j} = prod a_j^{-a_j} and
    the positive branch is lam = exp(-sum a_j log a_j / (1 + sum a_j)).
    The point is certified by the residual of the smooth potential at
    T = 0.5; a residual above 1e-10 raises NoConvergence.  Weights must be
    positive integer values.

    >>> round(wp_central_critical((1, 2)).lam ** 2, 12)
    0.5
    """
    tail = tuple(weights)
    try:
        ok = bool(tail) and all(a == int(a) >= 1 for a in tail)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InputError(f"weights must be positive integers (the tail a_1..a_n), got {weights!r}")
    tail = tuple(int(a) for a in tail)
    lam = math.exp(-sum(a * math.log(a) for a in tail) / (1 + sum(tail)))
    y = tuple(complex(a * lam) for a in tail)
    m = build_model({"preset": "weighted_projective", "weights": (1,) + tail})
    u0 = tuple(Fraction(0) for _ in tail)
    resid = critical_residual(smooth_leading_potential(m, u0), y, 0.5)
    if resid > 1e-10:
        raise NoConvergence(f"residual {resid:.3g} at the closed-form point for weights {tail}")
    return CentralFiberCritical(tail, u0, y, lam, resid)
