"""Leading-order potentials at a torus fiber and critical-point residuals.

A fiber point u contributes one term T^{area} y^{boundary} per facet, and a
bulk deformation adds one term per activated twisted sector.  Only the
leading order is built here: higher corrections have no closed formula, and
the downstream solvability pipeline never needs them.

Residuals are measured with the logarithmic gradient (y_i d/dy_i), which is
the coordinate-free notion in the y = e^x chart.  The Newton in log
coordinates that finds critical points here is also the one ltsolver.solve
runs on its level equations.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    c_add,
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


def sector_terms(m: StackyModel, u, bp: BulkParam) -> list:
    """(box index, T-exponent, coefficient) of each activated sector at u.

    A sector's T-exponent is lambda + ell_nu(u).  Bulk rows of one sector
    at one T-exponent are one term whose coefficient is their sum, and a
    zero sum is no term.  Terms come in the order of their first row.
    Every entry's lattice vector must name an actual twisted sector of the
    model.
    """
    box = enumerate_box(m)
    by_nu = {s.nu: i for i, s in enumerate(box)}
    sums: dict = {}
    for e in bp.entries:
        if e.nu not in by_nu:
            raise InputError(f"{e.nu} is not a twisted sector of this model")
        i = by_nu[e.nu]
        key = (i, e.exponent + sector_ell(m, box[i], u))
        sums[key] = c_add(sums[key], e.coeff) if key in sums else e.coeff
    return [(i, a, c) for (i, a), c in sums.items() if not c_is_zero(c)]


def bulk_leading_potential(m: StackyModel, u, bp: BulkParam) -> PotentialAtFiber:
    """Smooth potential plus c_nu T^{lambda + ell_nu(u)} y^nu per sector term.

    The sector terms are those of sector_terms: rows of one sector at one
    T-exponent are summed, and a zero sum is dropped.
    """
    base = smooth_leading_potential(m, u)
    sectors = enumerate_box(m)
    poly = base.poly
    terms = list(base.terms)
    for i, a, c in sector_terms(m, base.u, bp):
        nu = sectors[i].nu
        poly = poly + LaurentPoly.monomial(nu, NovikovScalar.of(c, a))
        terms.append(PotentialTerm("sector", i, nu, a, c))
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
# log-coordinate Newton, shared by critical_points and ltsolver.solve


class _EqData:
    """Numeric view of d Laurent equations in d unknowns, for _newton.

    ``exps`` holds one (T, d) float array of exponent rows per equation and
    ``coeffs`` one (T,) complex array of its term coefficients.  The rows
    of all equations are stacked, so one power and one product give every
    monomial at S points; values and log-Jacobian entries are then (S, T)
    @ (T, 1) products of each equation's columns with c and c * e_i.
    ``residual`` is the measure _newton stops on; a caller that needs
    another rule builds a subclass.
    """

    def __init__(self, exps, coeffs):
        self.d = exps[0].shape[1]
        self.exps = np.concatenate(exps)
        ends = np.cumsum([len(es) for es in exps])
        self.cols = [slice(end - len(es), end) for end, es in zip(ends, exps)]
        # per equation: matmul operands c and c * e_i, each (T, 1)
        self.ops = [
            [cs[:, None]] + [(cs * es[:, i])[:, None] for i in range(self.d)]
            for es, cs in zip(exps, coeffs)
        ]

    def f_and_jlog(self, ys, jac=True):
        """Values and, if jac, the log-Jacobian at the points ys, an (S, d) array."""
        n, d = ys.shape
        fv = np.empty((n, len(self.ops)), dtype=complex)
        jm = np.empty((n, len(self.ops), d), dtype=complex) if jac else None
        monos = np.multiply.reduce(ys[:, None, :] ** self.exps[None, :, :], axis=2)
        for r, (cols, ops) in enumerate(zip(self.cols, self.ops)):
            mono = monos[:, cols]
            fv[:, r] = (mono @ ops[0])[:, 0]
            if jac:
                for i in range(d):
                    jm[:, r, i] = (mono @ ops[i + 1])[:, 0]
        return fv, jm

    def residual(self, fv, absy):
        """Each point's worst scaled |y_r * eq_r|, the measure of _newton.

        ``absy`` holds the moduli |y| of the points.  Equation r belongs to
        unknown r.  The raw values of all-negative-exponent systems vanish
        along escapes to infinity, and the scaled metric is what keeps
        those fake wells out of the candidate list.
        """
        return (np.abs(fv) * absy).max(axis=1)


def _newton(data, z0, iters: int = 60):
    """Log-coordinate Newton on a batch of starts; returns (points, residuals, values).

    The Jacobian entries are y_k d/dy_k of the equations, so the linear
    solve yields a step in x = log y and the update is multiplicative,
    which keeps every coordinate off zero without any projection step.
    Steps longer than 3 in log scale are cut to 3, and a start stops once
    it leaves 1e-9 < |y_i| < 1e9.  A start works while data.residual
    exceeds 1e-14.  A start whose log-Jacobian LU meets an exact zero pivot
    (slogdet sign 0, just where solve raises) stops where it is and is
    dropped.  The loop stops once no start is still working, and the
    values and residuals of its last evaluation are returned; after the
    last iteration only the values are evaluated.
    """
    zs = np.array(z0, dtype=complex)
    absz = np.abs(zs)
    alive = np.ones(len(zs), dtype=bool)
    for _ in range(iters):
        fv, jm = data.f_and_jlog(zs)
        res = data.residual(fv, absz)
        work = alive & (res > 1e-14)
        if not work.any():
            return zs, res, fv
        a, b = jm[work], -fv[work][..., None]
        try:
            dx = np.linalg.solve(a, b)[..., 0]
        except np.linalg.LinAlgError:
            sign, _ = np.linalg.slogdet(a)
            regular = sign != 0
            dx = np.zeros((len(a), zs.shape[1]), dtype=complex)
            dx[regular] = np.linalg.solve(a[regular], b[regular])[..., 0]
            alive[np.nonzero(work)[0][~regular]] = False
        # np.linalg.norm(dx, axis=1), without its argument handling
        norms = np.sqrt(np.add.reduce((dx.conj() * dx).real, axis=1))
        big = norms > 3.0
        dx[big] *= (3.0 / norms[big])[:, None]
        zs[work] *= np.exp(dx)
        absz = np.abs(zs)
        alive &= ~((absz > 1e9).any(axis=1) | (absz < 1e-9).any(axis=1))
    fv, _ = data.f_and_jlog(zs, jac=False)
    return zs, data.residual(fv, absz), fv


def companion_roots(coeffs: dict) -> list:
    """Roots off zero of sum_k coeffs[k] * y^k, by companion matrix.

    Keys are integer exponents, possibly negative: the dense vector runs
    from the highest key down to the lowest, so a Laurent polynomial gives
    the roots of its numerator.  Roots with |r| < 1e-8 are dropped.
    """
    vec = [coeffs.get(k, 0j) for k in range(max(coeffs), min(coeffs) - 1, -1)]
    return [complex(r) for r in np.roots(vec) if abs(r) >= 1e-8]


def root_key(y) -> tuple:
    """Sort key of a complex point: coordinates rounded to 9 digits."""
    return tuple((round(c.real, 9), round(c.imag, 9)) for c in y)


def far_apart(ys) -> list:
    """Indices of the rows of ys that a greedy pass keeps, in row order.

    A row is kept when it lies more than 1e-6 from every row kept before
    it, in the largest coordinate distance.  The distances are those of
    Python complex abs (np.hypot of the parts; np.abs differs in the last
    bit), and the largest is taken as Python's max takes it: a NaN first
    distance wins and later NaNs are skipped.  One matrix of "farther than
    1e-6" answers serves every row, and the loop runs once per kept row.
    """
    diff = ys[:, None, :] - ys[None, :, :]
    dist = np.hypot(diff.real, diff.imag)
    far = (dist > 1e-6).any(axis=2) & (dist[..., 0] == dist[..., 0])
    left = np.ones(len(ys), dtype=bool)
    kept = []
    while left.any():
        i = int(left.argmax())
        kept.append(i)
        left &= far[i]
    return kept


# ---------------------------------------------------------------------------
# critical points of a potential at fixed numeric T


@dataclass(frozen=True)
class CriticalPoint:
    y: tuple  # complex coordinates
    residual: float  # max_i |y_i dp/dy_i| at y


# the multivariate search: seeded starts, and the bound both residuals must meet
CRITICAL_STARTS = 64
CRITICAL_TOL = 1e-10


class _GradientData(_EqData):
    """The log-gradient entries of a potential at T = t, one coefficient set.

    Every entry of a leading-order potential scales with a power of T, so
    the residual divides each entry by the largest modulus among its
    coefficients at T: the Newton stop and the acceptance bound then mean
    the same at every T.
    """

    def __init__(self, grads, t, env):
        n = len(grads)
        exps = [np.array([e for e, _ in g.terms()], dtype=float).reshape(-1, n) for g in grads]
        coeffs = [np.array([s.eval_complex(t, env) for _, s in g.terms()], dtype=complex) for g in grads]
        super().__init__(exps, coeffs)
        # an entry without terms is zero everywhere, and any scale serves it
        self.scale = np.array([np.abs(cs).max(initial=0.0) or 1.0 for cs in coeffs])

    def residual(self, fv, absy):
        return (np.abs(fv) / self.scale).max(axis=1)


def critical_points(p, t_value: float = 0.5, env: dict | None = None, seed: int = 0) -> list:
    """Search for critical points of p at T = t_value.

    One variable: the companion-matrix roots of the log-derivative, each
    polished by Newton and all kept.  Several variables: CRITICAL_STARTS
    seeded starts (moduli in [0.2, 2.0], phases uniform) run through Newton
    as one batch; a point is kept when its scale-free residual
    (_GradientData) and its absolute residual are both below CRITICAL_TOL
    and it lies more than 1e-6 from every point kept before it.  Either way
    the list is sorted by rounded coordinates, so reruns with one seed
    agree.  T is a positive real number: a non-finite or non-positive
    t_value raises InputError.
    """
    poly = p.poly if isinstance(p, PotentialAtFiber) else p
    t = _positive_t(t_value)
    grads = log_gradient(poly)
    if poly.n == 1:
        terms = grads[0].terms()
        roots = companion_roots({e[0]: s.eval_complex(t, env) for e, s in terms}) if terms else []
        starts = [(r,) for r in roots]
    else:
        rng = random.Random(seed)
        starts = [
            [cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(0.0, 2 * cmath.pi)) for _ in range(poly.n)]
            for _ in range(CRITICAL_STARTS)
        ]
    if not starts:
        return []
    data = _GradientData(grads, t, env)
    ys, res, fv = _newton(data, starts)
    absolute = np.abs(fv).max(axis=1)
    if poly.n == 1:
        keep = range(len(ys))
    else:
        off_zero = (np.hypot(ys.real, ys.imag) > 1e-8).all(axis=1)
        (candidates,) = np.nonzero((res < CRITICAL_TOL) & (absolute < CRITICAL_TOL) & off_zero)
        keep = candidates[far_apart(ys[candidates])]
    found = [CriticalPoint(tuple(ys[i].tolist()), float(absolute[i])) for i in keep]
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
