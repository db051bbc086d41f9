"""Independent cross-checks used by the test suite.

Everything here is written from first principles (determinantal divisors,
cofactor expansion, sympy normal forms) rather than against the package
internals, so agreement is evidence and not tautology.  child_env is the
environment of the child interpreters some tests start.
"""

import json
import os
import re
from fractions import Fraction
from itertools import combinations, product
from math import atan2, gcd
from pathlib import Path

import sympy
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf


def child_env() -> dict:
    """os.environ with the imported package's src first on PYTHONPATH.

    pytest's pythonpath setting reaches only its own process, so a child
    started with sys.executable finds orbifloer through this.
    """
    import orbifloer

    src = str(Path(orbifloer.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def det_cofactor(m):
    """Determinant by cofactor expansion; exponential, fine for small sizes."""
    k = len(m)
    if k == 0:
        return 1
    if k == 1:
        return m[0][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def determinantal_divisors(m):
    """d_k = gcd of all k x k minors; d_0 = 1.  A zero entry means rank < k."""
    rows, cols = len(m), len(m[0])
    out = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(det_cofactor(sub)))
        out.append(g)
    return out


def snf_diagonal_via_divisors(m):
    """Expected Smith diagonal: s_k = d_k / d_{k-1}, truncated at the rank."""
    div = determinantal_divisors(m)
    diag = []
    for k in range(1, len(div)):
        if div[k] == 0:
            break
        diag.append(div[k] // div[k - 1])
    return diag


def cone_coordinates(gens, x):
    """Coordinates t with x = sum t_i * gens_i, by a sympy solve; gens independent."""
    t = sympy.Matrix([list(g) for g in gens]).T.LUsolve(sympy.Matrix(list(x)))
    return tuple(Fraction(int(v.p), int(v.q)) for v in t)


def box_points_by_scan(gens):
    """Box points of a full-rank cone by scanning a bounding box.

    Every integer point of the bounding box of the fundamental
    parallelepiped {sum t_i g_i : 0 <= t_i <= 1} is tried, and the nonzero
    ones whose cone coordinates lie in [0, 1) are kept as (v, t) pairs.
    The coordinates are adj(G) v / det G, G the generators as columns, with
    the adjugate from sympy.  The scan runs in lexicographic order of v.
    """
    g = sympy.Matrix([list(v) for v in gens]).T
    d = int(g.det())
    adj = [[int(e) for e in g.adjugate().row(i)] for i in range(g.rows)]
    ranges = [
        range(sum(min(0, v[k]) for v in gens), sum(max(0, v[k]) for v in gens) + 1)
        for k in range(g.rows)
    ]
    out = []
    for v in product(*ranges):
        if not any(v):
            continue
        t = [Fraction(sum(a * x for a, x in zip(row, v)), d) for row in adj]
        if all(0 <= ti < 1 for ti in t):
            out.append((v, tuple(t)))
    return out


def integer_inverse(m):
    """Exact inverse of a unimodular integer matrix, by sympy."""
    inv = sympy.Matrix([list(r) for r in m]).inv()
    assert all(e.is_Integer for e in inv), "the matrix is not unimodular"
    return tuple(tuple(int(e) for e in inv.row(i)) for i in range(inv.rows))


def in_cone(gens, x):
    """Whether x lies in the closed simplicial cone of independent generators."""
    return all(t >= 0 for t in cone_coordinates(gens, x))


def is_unimodular(m):
    return abs(det_cofactor(m)) == 1


def is_saturated_basis_of_span(vectors, candidate_rows):
    """Check candidate_rows is a basis of span_Q(vectors) intersected with Z^n.

    Three properties characterize the saturation basis: integer rows of full
    rank r = rank(vectors); same rational span; Smith diagonal all ones (the
    row lattice is a primitive sublattice, hence equals the saturation).
    """
    a = sympy.Matrix(vectors)
    r = a.rank()
    if r == 0:
        return candidate_rows == []
    b = sympy.Matrix(candidate_rows)
    if b.rows != r or b.rank() != r:
        return False
    if any(not x.is_Integer for x in b):
        return False
    stacked = sympy.Matrix.vstack(a, b)
    if stacked.rank() != r:
        return False
    d = sympy_snf(b)
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    return all(abs(x) == 1 for x in diag[:r])


def p135_battery(u1, u2):
    """Hand-derived membership check for the weight (1,3,5) battery points.

    Interiority plus a short list of level scenarios verified by hand:
    all three facet values equal; one facet joined by the order-5 sectors
    (0,-1) and (-1,-2) at a single level; or the two-level ladders that pin
    the first level at the facet parallel to (0,-1).  Each listed case was
    checked solvable by explicit substitution.
    """
    u1, u2 = Fraction(u1), Fraction(u2)
    l0 = 1 - 3 * u1 - 5 * u2
    l1 = 1 + u1
    l2 = 1 + u2
    if min(l0, l1, l2) <= 0:
        return False
    m1 = Fraction(4, 5) - u2  # sector (0,-1)
    m2 = Fraction(3, 5) - u1 - 2 * u2  # sector (-1,-2)
    if l0 == l1 == l2:
        return True
    if m1 < l0 and m2 < l0 and l1 > l0 and l2 > l0:
        return True
    if m1 < l1 and m2 < l1 and l0 > l1 and l2 > l1:
        return True
    if m1 < l2 and l2 < l1 and m2 < l1 and l0 > l1:
        return True
    if m1 < l2 and l2 < l0 and m2 < l0 and l1 > l0:
        return True
    if l0 == l1 and l2 > l0 and m1 < l0:
        return True
    return False


def product_scenarios(fdirs, sdirs, dim, max_levels):
    """Reference scenario enumeration: filter the whole level-digit product.

    For K = 1..min(max_levels, dim), every facet and every sector direction
    gets a level digit in 0..K (0 leaves it out), in itertools.product
    order, facets first.  A candidate needs a facet at every level and a
    cumulative span that grows at each level and ends full.  Returns
    (serial, levels, excluded) tuples, serial being the rank among
    candidates.
    """
    from itertools import product

    ranks = {}

    def rank(dirs):
        if dirs not in ranks:
            ranks[dirs] = sympy.Matrix([list(d) for d in dirs]).rank() if dirs else 0
        return ranks[dirs]

    nf, ns = len(fdirs), len(sdirs)
    out = []
    for K in range(1, min(max_levels, dim) + 1):
        for fassign in product(range(K + 1), repeat=nf):
            if any(l not in fassign for l in range(1, K + 1)):
                continue
            fsets = [frozenset(fdirs[j] for j in range(nf) if fassign[j] == l) for l in range(K + 1)]
            for sassign in product(range(K + 1), repeat=ns):
                dirs, dims = frozenset(), []
                for l in range(1, K + 1):
                    dirs = dirs | fsets[l] | {sdirs[i] for i in range(ns) if sassign[i] == l}
                    dims.append(rank(dirs))
                if dims[-1] != dim or any(b <= a for a, b in zip([0] + dims, dims)):
                    continue
                levels = tuple(
                    tuple(
                        [("facet", j) for j in range(nf) if fassign[j] == l]
                        + [("sector", i) for i in range(ns) if sassign[i] == l]
                    )
                    for l in range(1, K + 1)
                )
                excluded = tuple(("sector", i) for i in range(ns) if sassign[i] == 0)
                out.append((len(out), levels, excluded))
    return out


def palette_certificate(lts):
    """(symbol values, y) of an exact +-1 root under a special assignment, or None.

    The reference for the exact palette solve once ran: the symbols take
    1, -1 and minus each facet label, in itertools.product order and at
    most 64 combinations, and every y in {+-1}^n is tried.  A point counts
    when eval_exact makes every level equation zero.
    """
    from itertools import islice, product

    from orbifloer.series import QC

    special = [QC(1), QC(-1)]
    special += [QC(-c) for c in sorted(set(lts.labels)) if QC(-c) not in special]
    equations = [eq for lv in lts.levels for eq in lv.equations]
    for combo in islice(product(special, repeat=len(lts.symbols)), 64):
        env = dict(zip(lts.symbols, combo))
        for y in product((1, -1), repeat=lts.n):
            if all(eval_exact(eq, y, env).is_zero() for eq in equations):
                return combo, y
    return None


def circuit_relation(own):
    """The relation of d + 1 own exponents in d variables as signed d x d cofactors.

    Entry k is (-1)^k det of the exponents without row k (det_cofactor), so
    sum_k L_k b_k = 0 by Cramer's rule; all zero when the rank is below d.
    """
    return [(-1) ** k * det_cofactor([list(b) for b in own[:k] + own[k + 1 :]]) for k in range(len(own))]


def circuit_roots_by_cofactors(lv, vals, env):
    """ltsolver._circuit_candidates as it was, with L the cofactor relation (circuit_relation)."""
    from orbifloer.ltsolver import _term_value
    from orbifloer.potential import binomial_roots

    own = [tuple(a[i] for i in lv.var_indices) for a, _ in lv.rows]
    if len(own) != len(lv.var_indices) + 1:
        return None  # the search never offered such a level
    coeffs = [_term_value(a, c, vals, env) for a, c in lv.rows]
    rel = circuit_relation(own)
    if not any(rel) or not all(coeffs):
        return None
    if not all(rel):
        return []
    a = [tuple(x - y for x, y in zip(b, own[0])) for b in own[1:]]
    return binomial_roots(a, [rel[k] * coeffs[0] / (rel[0] * coeffs[k]) for k in range(1, len(own))])


def coloop_refutes(lts):
    """Whether some level of a leading term system has a coloop exponent.

    Computed from the system alone: in each level with own variables the
    terms are grouped by their exponent in those variables, the zero
    exponent dropped.  A group of one term whose coefficient can never be
    zero (a nonzero constant or a bare symbol) is a coloop when its
    exponent leaves the rational span of the other groups' exponents
    (sympy rank), and then the own-variable equations have no root on the
    torus.
    """
    from orbifloer.series import QC

    for lv in lts.levels:
        groups = {}
        for e, c in lv.poly.terms():
            a = tuple(e[k] for k in lv.var_indices)
            if any(a):
                groups.setdefault(a, []).append(c)

        def rank(exps):
            return sympy.Matrix([list(a) for a in exps]).rank() if exps else 0

        full = rank(list(groups))
        for a, coeffs in groups.items():
            c = coeffs[0]
            if isinstance(c, QC):
                never_zero = not c.is_zero()
            else:  # a symbolic coefficient: const + sum q * symbol
                never_zero = (len(c.lin), c.const.is_zero()) in ((0, False), (1, True))
            if len(coeffs) == 1 and never_zero and rank([b for b in groups if b != a]) < full:
                return True
    return False


def distinct_roots_by_loop(ys, res, tol=1e-12):
    """The multistart root filter of ltsolver as a Python loop.

    The points whose residual does not exceed tol (a NaN residual passes),
    sorted by root_key with Python's stable sort; a point is kept when its
    largest coordinate distance, by Python's max, to every point kept
    before it exceeds 1e-6.
    """
    from orbifloer.potential import root_key

    found = []
    for y in sorted((y for y, r in zip(ys, res) if not r > tol), key=root_key):
        if all(max(abs(a - b) for a, b in zip(y, f)) > 1e-6 for f in found):
            found.append(tuple(complex(c) for c in y))
    return found


def critical_keep_by_loop(ys, res, fv, n):
    """The points critical_points keeps from its Newton output, as a Python loop.

    One variable keeps every point.  Otherwise points are taken in start
    order, and one is kept when its scale-free residual res and its
    absolute residual max |fv| are below CRITICAL_TOL, every |y_i| exceeds
    1e-8, and it lies more than 1e-6 (largest coordinate distance) from
    every point kept before it.  The kept points are sorted by root_key.
    """
    import numpy as np

    from orbifloer.potential import CRITICAL_TOL, CriticalPoint, root_key

    found = []
    for y, scaled, absolute in zip(ys, res, np.abs(fv).max(axis=1)):
        point = CriticalPoint(tuple(complex(c) for c in y), float(absolute))
        if n == 1 or (
            scaled < CRITICAL_TOL
            and absolute < CRITICAL_TOL
            and all(abs(c) > 1e-8 for c in point.y)
            and all(max(abs(a - b) for a, b in zip(point.y, q.y)) > 1e-6 for q in found)
        ):
            found.append(point)
    return sorted(found, key=lambda c: root_key(c.y))


def f_and_jlog_by_equation(exps, coeffs, ys):
    """Values and log-Jacobian of Laurent equations at the points ys, one equation at a time.

    Equation r has the (T, d) exponent rows exps[r] and the (T,)
    coefficients coeffs[r].  Its monomials are np.prod of the coordinate
    powers, and each value or Jacobian entry is one (S, T) @ (T, 1)
    product with c or c * e_i.
    """
    import numpy as np

    n, d = ys.shape
    fv = np.empty((n, len(exps)), dtype=complex)
    jm = np.empty((n, len(exps), d), dtype=complex)
    for r, (e, cs) in enumerate(zip(exps, coeffs)):
        mono = np.prod(ys[:, None, :] ** e[None, :, :], axis=2)
        fv[:, r] = (mono @ cs[:, None])[:, 0]
        for i in range(d):
            jm[:, r, i] = (mono @ (cs * e[:, i])[:, None])[:, 0]
    return fv, jm


def critical_points_by_eval(p, t_value=0.5, seed=0, starts=64, residual_tol=1e-10):
    """Critical points by per-start Newton, every value summed afresh from the potential's terms.

    The log-gradient entry i at y is sum e_i c T^q y^e over the terms
    (exponent e, T-exponent q, coefficient c) of a PotentialAtFiber, and
    its log-Jacobian entry (i, k) is the same sum with e_i e_k; each Newton
    step evaluates them term by term, coefficients included, with absolute
    tolerances.  The start sequence and trust region are those of
    potential.critical_points, so at moderate T the two find the same
    points, to rounding.
    """
    import cmath
    import random

    import numpy as np

    from orbifloer.potential import CriticalPoint, root_key

    n = len(p.u)
    t = float(t_value)
    # (exponent, c * T^q) per term: the T-power is a number once T is fixed
    weighted = [(trm.exponent, trm.coeff.to_complex() * t ** float(trm.t_exponent)) for trm in p.terms]

    def entry(y, i, k=None):
        total = 0j
        for e, w in weighted:
            factor = e[i] * (1 if k is None else e[k])
            if factor:
                mono = 1 + 0j
                for z, a in zip(y, e):
                    mono *= z**a
                total += factor * w * mono
        return total

    def newton_polish(y, iters=60):
        yy = np.array(y, dtype=complex)
        for _ in range(iters):
            fv = np.array([entry(tuple(yy), i) for i in range(n)])
            if max(abs(v) for v in fv) < 1e-14:
                break
            jm = np.array([[entry(tuple(yy), i, k) for k in range(n)] for i in range(n)])
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
        return tuple(complex(c) for c in yy), max(abs(entry(tuple(yy), i)) for i in range(n))

    if n == 1:
        # y dp/dy = sum e c T^q y^e: its numerator's roots by companion matrix
        coeffs = {}
        for e, w in weighted:
            if e[0]:
                coeffs[e[0]] = coeffs.get(e[0], 0j) + e[0] * w
        if not coeffs:
            return []
        lo, hi = min(coeffs), max(coeffs)
        roots = [complex(r) for r in np.roots([coeffs.get(k, 0j) for k in range(hi, lo - 1, -1)])]
        found = [CriticalPoint(*newton_polish((r,))) for r in roots if abs(r) >= 1e-8]
    else:
        rng = random.Random(seed)
        found = []
        for _ in range(starts):
            y0 = tuple(cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(0.0, 2 * cmath.pi)) for _ in range(n))
            y, res = newton_polish(y0)
            if res < residual_tol and all(abs(c) > 1e-8 for c in y):
                if all(max(abs(a - b) for a, b in zip(y, q.y)) > 1e-6 for q in found):
                    found.append(CriticalPoint(y, res))
    return sorted(found, key=lambda c: root_key(c.y))


def mat_mul(a, b):
    """Integer matrix product, as tuples of row tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def partial_derivative(p, i):
    """d/dy_i of a LaurentPoly: exponent e picks up factor e_i and drops by one in slot i."""
    from orbifloer.series import LaurentPoly

    out = []
    for e, c in p.terms():
        if e[i] == 0:
            continue
        out.append((e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]))
    return LaurentPoly(p.n, out)


def eval_exact(p, y, env=None):
    """Exact value of a LaurentPoly at exact nonzero y, by repeated products.

    The reference for the solver's integer parity tables.
    """
    from orbifloer.errors import ZeroCoordinate
    from orbifloer.series import QC, SymLin

    env = env or {}
    vals = [QC.of(z) for z in y]
    if any(z.is_zero() for z in vals):
        raise ZeroCoordinate("torus coordinates must be nonzero")
    total = QC()
    for e, cf in p.terms():
        c = QC()
        if isinstance(cf, SymLin):
            # const + sum q * symbol; an unbound symbol raises KeyError
            for name, q in cf.lin:
                c = c + q * QC.of(env[name])
            cf = cf.const
        c = c + cf
        mono = QC(1)
        for z, k in zip(vals, e):
            # 1/z = conj(z) / |z|^2
            step = z if k > 0 else QC(z.re, -z.im) * QC(1 / (z.re * z.re + z.im * z.im))
            for _ in range(abs(k)):
                mono = mono * step
        total = total + c * mono
    return total


def monomial_rewrite(p, basis_change):
    """Substitute y_i = prod_j y'_j^(M_ij): exponent row vectors map e -> e M.

    M must be unimodular so the substitution is invertible on the torus.
    """
    from orbifloer.series import LaurentPoly

    m = [list(r) for r in basis_change]
    if len(m) != p.n or any(len(r) != p.n for r in m):
        raise ValueError("basis change must be square of the ambient dimension")
    if abs(det_cofactor(m)) != 1:
        raise ValueError("basis change must have determinant +-1")
    return LaurentPoly(p.n, [(mat_mul((e,), m)[0], c) for e, c in p.terms()])


def parse_poly(text, n):
    """Inverse of series.render_poly for constant (symbol-free) coefficients."""
    from orbifloer.series import QC, LaurentPoly

    text = text.strip()
    if text == "0":
        return LaurentPoly(n)
    out = []
    for piece in text.split(" + "):
        coeff = QC(1)
        e = [0] * n
        for factor in piece.split("*"):
            factor = factor.strip()
            m = re.fullmatch(r"y(\d+)(?:\^(-?\d+))?", factor)
            if m:
                e[int(m.group(1)) - 1] = int(m.group(2) or 1)
                continue
            m = re.fullmatch(r"\((-?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)i\)", factor)
            if m:
                coeff = coeff * QC(Fraction(m.group(1)), Fraction(m.group(2)))
                continue
            coeff = coeff * QC(Fraction(factor))
        out.append((tuple(e), coeff))
    return LaurentPoly(n, out)


def lts_by_rewrite(strat):
    """ltsolver.build_lts as it was before systems were built from exponent rows.

    Each level's monomials are summed into one LaurentPoly,
    rewritten into adapted coordinates by monomial_rewrite, and
    differentiated by partial_derivative.  Returns (system, terms): the
    system with each level's rows read off its rewritten polynomial, and
    per level the terms of that polynomial and of its equations, as
    lts_terms lists them.
    """
    from orbifloer import ltsolver as lt
    from orbifloer.series import LaurentPoly, SymLin

    n = strat.model.dim
    change = integer_inverse(strat.adapted_basis)
    out, terms = [], []
    prev_dim = 0
    names = set()
    for lv in strat.levels:
        poly = LaurentPoly(n, tuple(zip(lv.directions, lv.coeffs)))
        for coeff in lv.coeffs:
            if isinstance(coeff, SymLin):
                names.update(name for name, _ in coeff.lin)
        poly = monomial_rewrite(poly, change)
        for e, _ in poly.terms():
            if any(e[k] for k in range(lv.span_dim, n)):
                raise AssertionError("adapted rewrite leaked a later-level variable")
        own = tuple(range(prev_dim, lv.span_dim))
        eqs = tuple(partial_derivative(poly, i) for i in own)
        out.append(lt.LtsLevel(lv.energy, poly.terms(), own, n))
        terms.append([p.terms() for p in (poly, *eqs)])
        prev_dim = lv.span_dim
    system = lt.LeadingTermSystem(
        n,
        strat.adapted_basis,
        tuple(out),
        tuple(sorted(names)),
        tuple(f.label for f in strat.model.facets),
    )
    return system, terms


def scenario_lts_by_rewrite(m, s):
    """region.scenario_lts as it was: level ranks by rank_rational, then lts_by_rewrite.

    The basis is column_hermite's W over the directions stacked level by
    level, as the package takes it; lts_by_rewrite reads no exponents.
    """
    from orbifloer import ltsolver as lt
    from orbifloer.lattice import column_hermite, rank_rational
    from orbifloer.series import QC, SymLin
    from orbifloer.stacky import enumerate_box

    box = enumerate_box(m)
    levels = []
    seen = []
    prev_rank = 0
    for group in s.levels:
        dirs = []
        for kind, i in group:
            dirs.append(m.facets[i].stacky_vector if kind == "facet" else box[i].nu)
        seen.extend(dirs)
        r = rank_rational(seen)
        coeffs = tuple(QC.of(1) if kind == "facet" else SymLin.symbol(f"c{i}") for kind, i in group)
        levels.append(lt.StratumLevel(None, tuple(group), tuple(dirs), coeffs, r - prev_rank, r))
        prev_rank = r
    assert prev_rank == m.dim, "scenario levels do not span"
    _, w, _ = column_hermite([d for lv in levels for d in lv.directions], m.dim)
    strat = lt.EnergyStratification(m, None, tuple(levels), tuple(map(tuple, w)), ())
    return lts_by_rewrite(strat)


def signature_by_terms(lts):
    """ltsolver.lts_signature as it once was, read from polynomials: (key, symbols).

    Read from the level polynomials' terms, coefficients keyed by their
    printed parts and symbols renamed s0, s1, ... by first appearance.
    """
    from orbifloer.series import QC

    names = {}
    for lv in lts.levels:
        for _, c in lv.poly.terms():
            if not isinstance(c, QC):
                for name, _ in c.lin:
                    names.setdefault(name, None)
    symbols = tuple(names)
    rename = {name: f"s{k}" for k, name in enumerate(symbols)}

    def ckey(c):
        if isinstance(c, QC):
            return ("q", str(c.re), str(c.im))
        parts = [("q", str(c.const.re), str(c.const.im))]
        for name, q in c.lin:
            parts.append((rename[name], str(q.re), str(q.im)))
        return ("s", tuple(parts))

    sig = []
    for lv in lts.levels:
        terms = tuple(sorted((e, ckey(c)) for e, c in lv.poly.terms()))
        sig.append((terms, lv.var_indices))
    return tuple(sig), symbols


def lts_terms(lts):
    """Every polynomial of a system as its terms in order, the order the solver reads."""
    return [[p.terms() for p in (lv.poly, *lv.equations)] for lv in lts.levels]


def one_to_one(pairs) -> bool:
    """Whether each first item of the pairs meets exactly one second item and back."""
    forward, backward = {}, {}
    for a, b in pairs:
        forward.setdefault(a, set()).add(b)
        backward.setdefault(b, set()).add(a)
    return all(len(v) == 1 for v in (*forward.values(), *backward.values()))


def is_column_hermite(rows, h, w, sign) -> bool:
    """Whether (h, w, sign) is the lower Hermite form of the integer rows.

    rows = h * w with w unimodular of determinant sign, and h lower echelon:
    with k pivots placed, a row is zero from column k + 1 on; a nonzero
    entry at column k is the next pivot p, positive, and each entry left of
    it lies in (-p/2, p/2].  For rows of full column rank exactly one
    triple passes.
    """
    if mat_mul(h, w) != tuple(map(tuple, rows)) or det_cofactor(w) != sign or abs(sign) != 1:
        return False
    k = 0
    for row in h:
        if k == len(w):
            continue
        if any(row[k + 1 :]) or row[k] < 0:
            return False
        if row[k]:
            p = row[k]
            if not all(-p < 2 * x <= p for x in row[:k]):
                return False
            k += 1
    return True


# json.dumps of the placeholder "\x00f<k>\x00" that enc puts in for float k
_FLOAT_TOKEN = re.compile(r'"\\u0000f(\d+)\\u0000"')


def dump_json_by_placeholders(doc) -> str:
    """cli.dump_json through json.dumps: each float becomes a string token
    that is swapped for format(x, ".17g") in the indented text."""
    floats = []

    def enc(o):
        if isinstance(o, float):
            floats.append(format(float(o), ".17g"))
            return f"\x00f{len(floats) - 1}\x00"
        if isinstance(o, dict):
            return {k: enc(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [enc(v) for v in o]
        return o

    text = json.dumps(enc(doc), indent=2)
    return _FLOAT_TOKEN.sub(lambda t: floats[int(t.group(1))], text) + "\n"


def piece_geometry_all_pairs(p):
    """region.piece_geometry of a 2-d piece by intersecting every pair of rows.

    Every inequality row of the piece takes part, dominated or not, and
    each pairwise vertex is tested against all of them; the equality rank
    comes from sympy.
    """
    eqs, ineqs = p.polyhedron.equalities, p.polyhedron.inequalities
    w = p.polyhedron.witness
    rank = sympy.Matrix([list(c.coeffs) for c in eqs]).rank() if eqs else 0
    if rank >= 2:
        return ("point", (w,))

    def value(row, pt):
        return row[0] * pt[0] + row[1] * pt[1] + row[2]

    rows = [(*c.coeffs, c.const) for c in ineqs]
    if rank == 1:
        g = next(c.coeffs for c in eqs if any(c.coeffs))
        d = (-g[1], g[0])
        ts = [
            (Fraction(-value(r, w), r[0] * d[0] + r[1] * d[1]), r[0] * d[0] + r[1] * d[1] > 0)
            for r in rows
            if r[0] * d[0] + r[1] * d[1]
        ]
        tmin = max(t for t, up in ts if up)
        tmax = min(t for t, up in ts if not up)
        a = tuple(wi + tmin * di for wi, di in zip(w, d))
        b = tuple(wi + tmax * di for wi, di in zip(w, d))
        return ("point", (a,)) if a == b else ("segment", (a, b))
    pts = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations([r for r in rows if r[0] or r[1]], 2):
        det = a1 * b2 - b1 * a2
        if det:
            v = (Fraction(-c1 * b2 + c2 * b1, det), Fraction(-c2 * a1 + c1 * a2, det))
            if all(value(r, v) >= 0 for r in rows):
                pts.add(v)
    pts = sorted(pts)
    if len(pts) < 3:
        if len(pts) == 2:
            return ("segment", tuple(pts))
        return ("point", (pts[0] if pts else w,))
    cx = sum(x for x, _ in pts) / len(pts)
    cy = sum(y for _, y in pts) / len(pts)
    return ("polygon", tuple(sorted(pts, key=lambda q: atan2(float(q[1] - cy), float(q[0] - cx)))))


def polygon_by_fractions(rows):
    """region._polygon in Fractions, as it was: the polygon of a frozenset of binding rows.

    Every pair of non-parallel rows gives a Fraction vertex, kept when it
    satisfies every row; the vertices are sorted, then ordered by the float
    angle about their Fraction centroid.
    """
    pts = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(rows, 2):
        det = a1 * b2 - b1 * a2
        if det == 0:
            continue
        v = (Fraction(-c1 * b2 + c2 * b1, det), Fraction(-c2 * a1 + c1 * a2, det))
        if all(a * v[0] + b * v[1] + c >= 0 for a, b, c in rows):
            pts.add(v)
    pts = sorted(pts)
    cx = sum(x for x, _ in pts) / len(pts)
    cy = sum(y for _, y in pts) / len(pts)
    return ("polygon", tuple(sorted(pts, key=lambda q: atan2(float(q[1] - cy), float(q[0] - cx)))))


def clip_by_fractions(p, base, d, closed=True):
    """region._clip in Fractions, as it was: (lo, lo_closed, hi, hi_closed) of a piece on base + t*d.

    Each condition meeting the line gives the Fraction t = -value(base)/a,
    a = coeffs.d; lo is the largest lower bound and hi the smallest upper
    one, each closed when every condition reaching it may hold with
    equality.
    """
    lower, upper = [], []
    for c in p.polyhedron.equalities + p.polyhedron.inequalities:
        a = sum(x * y for x, y in zip(c.coeffs, d))
        if a == 0:
            continue
        value = sum(x * Fraction(y) for x, y in zip(c.coeffs, base)) + c.const
        bound = -value / a, c.rel == "==" or (closed and c.kind != "interior")
        if c.rel == "==" or a > 0:
            lower.append(bound)
        if c.rel == "==" or a < 0:
            upper.append(bound)

    def endpoint(bounds, pick):
        v = pick(v for v, _ in bounds)
        return v, all(cl for w, cl in bounds if w == v)

    return (*endpoint(lower, max), *endpoint(upper, min))


def scenario_constraints_row_by_row(m, s):
    """region.scenario_constraints as it was: every Constraint built afresh.

    Rows are differences of the model's integer form rows, built and
    labelled in the order the scenario names them.
    """
    from orbifloer.region import Constraint, _model_rows
    from orbifloer.stacky import enumerate_box

    def difference(a, b, rel, kind, label):
        row = [x - y for x, y in zip(a, b)]
        return Constraint(tuple(row[:-1]), row[-1], rel, kind, label)

    facet, sector = _model_rows(m)
    box = enumerate_box(m)
    cons = [
        Constraint(row[:-1], row[-1], ">", "interior", f"ell_{j} > 0")
        for j, row in enumerate(facet)
    ]
    anchors = []
    for l, tags in enumerate(s.levels):
        facets = [i for k, i in tags if k == "facet"]
        a = facets[0]
        anchors.append(a)
        for j in facets[1:]:
            cons.append(difference(facet[a], facet[j], "==", "level", f"ell_{a} = ell_{j}"))
        for k, i in tags:
            if k == "sector":
                label = f"ell_nu{box[i].nu} < S{l + 1}"
                cons.append(difference(facet[a], sector[i], ">", "sector", label))
    for l in range(len(anchors) - 1):
        label = f"S{l + 2} > S{l + 1}"
        cons.append(difference(facet[anchors[l + 1]], facet[anchors[l]], ">", "order", label))
    assigned = {i for tags in s.levels for k, i in tags if k == "facet"}
    top = facet[anchors[-1]]
    for j in range(len(m.facets)):
        if j not in assigned:
            cons.append(difference(facet[j], top, ">", "above", f"ell_{j} > S{s.K}"))
    return cons


def solve_by_cramer(a, rhs):
    """The solution of the square system a x = rhs in Fractions; None if singular."""
    d = det_cofactor(a)
    if d == 0:
        return None
    return tuple(
        Fraction(det_cofactor([row[:i] + [r] + row[i + 1 :] for row, r in zip(a, rhs)]), d)
        for i in range(len(a))
    )


def vertices_by_fractions(b, lam, n):
    """stacky.build_model's vertex enumeration as it was: every slack a Fraction.

    b are the stacky vectors, lam the rational offsets.  Returns the sorted
    vertices and the map from each to its active facets, or raises the
    NotSimple or EmptyInterior that build_model raised, with its message.
    """
    from orbifloer.errors import EmptyInterior, NotSimple

    m = len(b)
    vertex_map = {}
    for subset in combinations(range(m), n):
        u = solve_by_cramer([list(b[j]) for j in subset], [lam[j] for j in subset])
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
    verts = sorted(vertex_map)
    k = len(verts)
    centroid = tuple(sum(v[i] for v in verts) / k for i in range(n))
    for j in range(m):
        if sum(centroid[i] * b[j][i] for i in range(n)) - lam[j] <= 0:
            raise EmptyInterior("polytope has no interior point")
    return verts, vertex_map


def integral_basis_by_det(gens, trace):
    """lattice.integral_basis_in_cone as it was: each candidate scored by a determinant.

    Box points come from the bounding-box scan and multiplicities from
    cofactor expansion; ties go to the lexicographically least sorted
    generator matrix.  Appends each round's multiplicity to trace.
    """
    gens = [tuple(g) for g in gens]
    while True:
        mult = abs(det_cofactor([list(g) for g in gens]))
        trace.append(mult)
        if mult == 1:
            return sorted(gens)
        best = None
        for v, t in box_points_by_scan(gens):
            c = 0
            for x in v:
                c = gcd(c, abs(x))
            w = tuple(x // c for x in v)
            for i, ti in enumerate(t):
                if ti == 0:
                    continue
                sub = gens[:i] + [w] + gens[i + 1 :]
                key = (abs(det_cofactor([list(g) for g in sub])), tuple(sorted(sub)))
                if best is None or key < best[0]:
                    best = (key, sub)
        gens = best[1]


@st.composite
def equality_systems(draw):
    """(n, rows): integer rows of n unknowns and a constant, read as rows == 0."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n + 1, max_size=n + 1), max_size=5))
    # a row combined from earlier ones makes dependent and conflicting systems
    if rows and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        mixed = [a * x + b * y for x, y in zip(rows[0], rows[-1])]
        mixed[-1] += draw(st.integers(-1, 1))
        rows.append(mixed)
    return n, rows
