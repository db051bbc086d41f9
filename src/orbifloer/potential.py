"""Leading-order potentials at a torus fiber and critical-point residuals.

A fiber point u contributes one term T^{area} y^{boundary} per facet, and a
bulk deformation adds one term per activated twisted sector.  Only the
leading order is built here: higher corrections have no closed formula, and
the downstream solvability pipeline never needs them.

A potential is its term list, and everything that evaluates it reads the
terms.  Residuals are measured with the logarithmic gradient (y_i d/dy_i),
which is the coordinate-free notion in the y = e^x chart.  The Newton in
log coordinates that finds critical points here is also the one
ltsolver.solve runs on its level equations.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import (
    InputError,
    NoConvergence,
    NonPositiveBulkExponent,
    ZeroCoordinate,
)
from .lattice import column_hermite, identity, solve_integer
from .series import QC, render_coeff
from .stacky import StackyModel, build_model, enumerate_box, sector_ell


@dataclass(frozen=True)
class BulkEntry:
    """One activated sector: coefficient times T^exponent."""

    nu: tuple  # lattice vector of a Box' element
    coeff: object  # QC, constant or with free symbols
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
        return all(e.coeff.is_zero() for e in self.entries)


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
    """Leading-order potential at a fixed interior fiber point, as its terms."""

    u: tuple
    terms: tuple  # PotentialTerm, facets first

    def __str__(self):
        return " + ".join(str(t) for t in self.terms) if self.terms else "0"


def smooth_leading_potential(m: StackyModel, u) -> PotentialAtFiber:
    """One term T^{ell_j(u)} y^{b_j} per facet.

    >>> str(smooth_leading_potential(build_model("teardrop:3"), (0,)))
    'T^{1}*y1^3 + T^{1}*y1^-1'
    """
    m.require_interior(u)
    uu = tuple(Fraction(x) for x in u)
    terms = tuple(
        PotentialTerm("facet", j, f.stacky_vector, m.ell(j, uu), QC.of(1)) for j, f in enumerate(m.facets)
    )
    return PotentialAtFiber(uu, terms)


def bulk_leading_potential(m: StackyModel, u, bp: BulkParam) -> PotentialAtFiber:
    """Smooth potential plus c_nu T^{lambda + ell_nu(u)} y^nu per activated sector.

    Bulk rows of one sector at one T-exponent are one term whose
    coefficient is their sum, and a zero sum is no term.  Sector terms come
    in the order of their first row.  Every entry's lattice vector must
    name an actual twisted sector of the model.
    """
    base = smooth_leading_potential(m, u)
    if not bp.entries:
        return base
    box = enumerate_box(m)
    by_nu = {s.nu: i for i, s in enumerate(box)}
    sums: dict = {}
    for e in bp.entries:
        if e.nu not in by_nu:
            raise InputError(f"{e.nu} is not a twisted sector of this model")
        i = by_nu[e.nu]
        key = (i, e.exponent + sector_ell(m, box[i], base.u))
        sums[key] = sums[key] + e.coeff if key in sums else e.coeff
    sectors = tuple(
        PotentialTerm("sector", i, box[i].nu, a, c) for (i, a), c in sums.items() if not c.is_zero()
    )
    return PotentialAtFiber(base.u, base.terms + sectors)


def _positive_t(t_value) -> float:
    t = float(t_value)
    if not math.isfinite(t) or t <= 0:
        raise InputError(f"t_value must be a finite positive number, got {t_value!r}")
    return t


def critical_residual(p: PotentialAtFiber, y, t_value: float = 0.5) -> float:
    """max_i |y_i dp/dy_i| at the point (y, T = t_value), summed term by term.

    Each entry is sum e_i c T^q y^e over the terms of p; the loop shares
    nothing with critical_points, so it re-checks its points.  A symbolic
    coefficient raises KeyError.  Non-finite y, or T not finite and
    positive, raises InputError.
    """
    t = _positive_t(t_value)
    yy = tuple(complex(c) for c in y)
    if len(yy) != len(p.u):
        raise InputError(f"residual needs {len(p.u)} coordinates, got {y!r}")
    if not all(cmath.isfinite(c) for c in yy):
        raise InputError(f"residual needs finite coordinates, got {y!r}")
    if any(c == 0 for c in yy):
        raise ZeroCoordinate("residual undefined on a coordinate hyperplane")
    worst = 0.0
    for i in range(len(yy)):
        total = 0j
        for term in p.terms:
            e = term.exponent
            if e[i]:
                mono = math.prod(z**k for z, k in zip(yy, e))
                total += (term.coeff * e[i]).to_complex() * t ** float(term.t_exponent) * mono
        worst = max(worst, abs(total))
    return worst


# ---------------------------------------------------------------------------
# log-coordinate Newton, shared by critical_points and ltsolver.solve


class _EqData:
    """Numeric view of d Laurent equations in d unknowns, for _newton.

    ``exps`` holds one (T, d) float array of exponent rows per equation and
    ``coeffs`` one (T,) complex array of its term coefficients.  The rows
    of all equations are stacked, so one power and one product give every
    monomial at S points; values and log-Jacobian entries then come from
    one (S, T) @ (d + 1, T, 1) matmul per equation, its columns against c
    and c * e_i stacked, which runs the gemv of each operand on its own.
    ``residual`` is the measure _newton stops on; a caller that needs
    another rule builds a subclass.
    """

    def __init__(self, exps, coeffs):
        import numpy as np

        self.d = exps[0].shape[1]
        self.exps = np.concatenate(exps)
        ends = np.cumsum([len(es) for es in exps])
        self.cols = [slice(end - len(es), end) for end, es in zip(ends, exps)]
        # per equation: the matmul operands c and c * e_i stacked, (d + 1, T, 1)
        self.ops = [
            np.stack([cs] + [cs * es[:, i] for i in range(self.d)])[:, :, None]
            for es, cs in zip(exps, coeffs)
        ]

    def f_and_jlog(self, ys, jac=True):
        """Values and, if jac, the log-Jacobian at the points ys, an (S, d) array."""
        import numpy as np

        n, d = ys.shape
        fv = np.empty((n, len(self.ops)), dtype=complex)
        jm = np.empty((n, len(self.ops), d), dtype=complex) if jac else None
        monos = np.multiply.reduce(ys[:, None, :] ** self.exps[None, :, :], axis=2)
        for r, (cols, ops) in enumerate(zip(self.cols, self.ops)):
            mono = monos[:, cols]
            if jac:
                vals = np.matmul(mono, ops)[:, :, 0]
                fv[:, r] = vals[0]
                jm[:, r, :] = vals[1:].T
            else:
                fv[:, r] = (mono @ ops[0])[:, 0]
        return fv, jm

    def residual(self, fv, absy):
        """Each point's worst scaled |y_r * eq_r|, the measure of _newton.

        ``absy`` holds the moduli |y| of the points.  Equation r belongs to
        unknown r.  The raw values of all-negative-exponent systems vanish
        along escapes to infinity, and the scaled metric is what keeps
        those fake wells out of the candidate list.
        """
        return (abs(fv) * absy).max(axis=1)


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
    import numpy as np

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
    import numpy as np

    vec = [coeffs.get(k, 0j) for k in range(max(coeffs), min(coeffs) - 1, -1)]
    return [complex(r) for r in np.roots(vec) if abs(r) >= 1e-8]


def binomial_roots(a, gamma) -> list | None:
    """The |det a| torus roots of y^a_k = gamma_k, k = 1..d, sorted by root_key; None if det a = 0.

    ``a`` is a d x d integer matrix and ``gamma`` d nonzero numbers.  With
    column_hermite's a = H W, the coordinates z = y^W solve the lower
    triangular z_k^H_kk = gamma_k / prod_{j<k} z_j^H_kj one root extraction
    at a time, and y = z^(W^-1).
    """
    d = len(a)
    h, w, _ = column_hermite(a, d)
    if not all(h[k][k] for k in range(d)):
        return None
    zs = [()]
    for k, (row, g) in enumerate(zip(h, gamma)):
        rhs = [complex(g / math.prod(map(pow, z, row))) ** (1 / row[k]) for z in zs]
        zs = [z + (r * cmath.exp(2j * cmath.pi * m / row[k]),) for z, r in zip(zs, rhs) for m in range(row[k])]
    v, _ = solve_integer(w, identity(d))
    return sorted((tuple(math.prod(map(pow, z, vi)) for vi in v) for z in zs), key=root_key)


def random_starts(seed, count: int, width: int, lo: float, hi: float) -> list:
    """count Newton starts of width coordinates, drawn from random.Random(seed).

    Each coordinate is rect(modulus, phase): its modulus uniform in [lo, hi],
    then its phase uniform in [0, 2 pi).  critical_points and the ltsolver
    multistart both draw their starts here.
    """
    rng = random.Random(seed)
    return [
        [cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2 * cmath.pi)) for _ in range(width)]
        for _ in range(count)
    ]


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
    import numpy as np

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


def _log_gradient(p: PotentialAtFiber, t: float) -> tuple:
    """y_i dp/dy_i at T = t as numeric rows, one tuple per variable i.

    Entry i holds the sorted (exponent, value) rows with e_i != 0, the
    value summing c * e_i * t^q over the terms at that exponent in
    ascending q: a sector's bulk rows at two energies share an exponent.
    """
    by_exponent: dict = {}
    for term in p.terms:
        by_exponent.setdefault(term.exponent, []).append((term.t_exponent, term.coeff))
    rows = [(e, sorted(qs, key=itemgetter(0))) for e, qs in sorted(by_exponent.items())]
    return tuple(
        tuple(
            (e, sum((c * e[i]).to_complex() * t ** float(q) for q, c in qs)) for e, qs in rows if e[i]
        )
        for i in range(len(p.u))
    )


class _GradientData(_EqData):
    """The log-gradient entries of a potential at T = t, one coefficient set.

    ``grads`` are _log_gradient's rows.  Every entry of a leading-order
    potential scales with a power of T, so the residual divides each entry
    by the largest modulus among its coefficients at T: the Newton stop
    and the acceptance bound then mean the same at every T.
    """

    def __init__(self, grads):
        import numpy as np

        n = len(grads)
        exps = [np.array([e for e, _ in g], dtype=float).reshape(-1, n) for g in grads]
        coeffs = [np.array([v for _, v in g], dtype=complex) for g in grads]
        super().__init__(exps, coeffs)
        # an entry without terms is zero everywhere, and any scale serves it
        self.scale = np.array([np.abs(cs).max(initial=0.0) or 1.0 for cs in coeffs])

    def residual(self, fv, absy):
        return (abs(fv) / self.scale).max(axis=1)


def critical_points(p: PotentialAtFiber, t_value: float = 0.5, seed: int = 0) -> list:
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
    import numpy as np

    n = len(p.u)
    grads = _log_gradient(p, _positive_t(t_value))
    if n == 1:
        roots = companion_roots({e[0]: v for e, v in grads[0]}) if grads[0] else []
        starts = [(r,) for r in roots]
    else:
        starts = random_starts(seed, CRITICAL_STARTS, n, 0.2, 2.0)
    if not starts:
        return []
    data = _GradientData(grads)
    ys, res, fv = _newton(data, starts)
    absolute = np.abs(fv).max(axis=1)
    if n == 1:
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
