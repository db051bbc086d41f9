"""Independent cross-checks used by the test suite.

Everything here is written from first principles (determinantal divisors,
cofactor expansion, sympy normal forms) rather than against the package
internals, so agreement is evidence and not tautology.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf


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
    (serial, levels, excluded, span_dims) tuples, serial being the rank
    among candidates.
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
                out.append((len(out), levels, excluded, tuple(dims)))
    return out


def solve_each_assignment_alone(lts, seed=0, starts=64):
    """ltsolver.solve with no batch: every numeric-palette search runs alone.

    solve runs the first level's multistart of every symbol assignment after
    the first as one batch.  This reference takes the passes of solve in
    order and lets each assignment's _Search run its own multistart, one
    assignment at a time.  Unlike the rest of this file it reuses the
    package's search code on purpose: agreement then isolates the batch.
    Returns (status, certificate).
    """
    from orbifloer import ltsolver as lt

    for lv in lts.levels:
        terms = lv.poly.terms()
        if (
            lv.var_indices
            and len(terms) == 1
            and lt._never_zero(terms[0][1].leading_coefficient())
            and any(terms[0][0][k] for k in lv.var_indices)
        ):
            return lt.Solvability.UnsolvableProven, None
    rows = tuple(tuple(lt._parity_rows(eq) for eq in lv.equations) for lv in lts.levels)
    envs = lt._symbol_assignments(lts)
    exact = [
        lt._Search(lts, rows, env, seed, starts, exact_only=True)
        for env in envs
        if lt._env_is_exact(env)
    ]
    numeric = [lt._Search(lts, rows, env, seed, starts) for env in envs]
    for search in exact + numeric:
        cert = search.run()
        if cert is not None:
            return lt.Solvability.SolvableCertified, cert
    if lts.symbols:
        cert = lt._FreeSearch(lts, seed, starts).run()
        if cert is not None:
            return lt.Solvability.SolvableCertified, cert
    return lt.Solvability.UnknownLikelyUnsolvable, None


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
        for e, s in lv.poly.terms():
            a = tuple(e[k] for k in lv.var_indices)
            if any(a):
                groups.setdefault(a, []).append(s.leading_coefficient())

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


def critical_points_by_eval(p, t_value=0.5, env=None, seed=0, starts=64, residual_tol=1e-10):
    """potential.critical_points with every value taken by LaurentPoly.eval_complex.

    Each Newton step evaluates each log-gradient and log-Jacobian entry
    polynomial afresh, coefficients included.  The loop, its tolerances and
    the start sequence are those of critical_points, which prepares the
    entries once per call instead; the two must agree to the bit.
    """
    import cmath
    import random

    import numpy as np

    from orbifloer.potential import CriticalPoint, PotentialAtFiber, log_gradient, root_key

    def newton_polish(grads, jac, y, t, env, iters=60):
        yy = np.array(y, dtype=complex)
        for _ in range(iters):
            fv = np.array([g.eval_complex(tuple(yy), t, env) for g in grads])
            res = max(abs(v) for v in fv)
            if res < 1e-14:
                break
            jm = np.array(
                [[jac[i][k].eval_complex(tuple(yy), t, env) for k in range(len(yy))] for i in range(len(fv))]
            )
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
        fv = [g.eval_complex(tuple(yy), t, env) for g in grads]
        return tuple(complex(c) for c in yy), max(abs(v) for v in fv)

    def log_jacobian(grads):
        return [[g.log_derivative(k) for k in range(g.n)] for g in grads]

    def univariate_critical(poly, t, env):
        g = poly.log_derivative(0)
        if g.is_zero():
            return []
        exps = [e[0] for e, _ in g.terms()]
        lo = min(exps)
        coeffs = {}
        for e, s in g.terms():
            coeffs[e[0] - lo] = s.eval_complex(t, env)
        deg = max(coeffs)
        vec = [coeffs.get(d, 0j) for d in range(deg, -1, -1)]
        roots = [complex(r) for r in np.roots(vec)]
        grads = log_gradient(poly)
        jac = log_jacobian(grads)
        out = []
        for r in roots:
            if abs(r) < 1e-8:
                continue
            y, res = newton_polish(grads, jac, (r,), t, env)
            out.append(CriticalPoint(y, res))
        return out

    poly = p.poly if isinstance(p, PotentialAtFiber) else p
    t = float(t_value)
    if poly.n == 1:
        found = univariate_critical(poly, t, env)
    else:
        grads = log_gradient(poly)
        jac = log_jacobian(grads)
        rng = random.Random(seed)
        found = []
        for _ in range(starts):
            y0 = tuple(
                cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(0.0, 2 * cmath.pi))
                for _ in range(poly.n)
            )
            y, res = newton_polish(grads, jac, y0, t, env)
            if res < residual_tol and all(abs(c) > 1e-8 for c in y):
                if all(max(abs(a - b) for a, b in zip(y, q.y)) > 1e-6 for q in found):
                    found.append(CriticalPoint(y, res))
    return sorted(found, key=lambda c: root_key(c.y))


def lts_by_rewrite(strat):
    """ltsolver.build_lts as it was before systems were built from exponent rows.

    Each level is summed monomial by monomial into a LaurentPoly,
    rewritten into adapted coordinates by series.monomial_rewrite, and
    differentiated by LaurentPoly.partial_derivative.
    """
    from orbifloer import ltsolver as lt
    from orbifloer.lattice import invert_unimodular
    from orbifloer.series import LaurentPoly, NovikovScalar, SymLin, monomial_rewrite

    n = strat.model.dim
    change = invert_unimodular(strat.adapted_basis)
    out = []
    prev_dim = 0
    names = set()
    for lv in strat.levels:
        poly = LaurentPoly.zero(n)
        for direction, coeff in zip(lv.directions, lv.coeffs):
            poly = poly + LaurentPoly.monomial(direction, NovikovScalar.of(coeff))
            if isinstance(coeff, SymLin):
                names.update(name for name, _ in coeff.lin)
        poly = monomial_rewrite(poly, change)
        for e, _ in poly.terms():
            if any(e[k] for k in range(lv.span_dim, n)):
                raise AssertionError("adapted rewrite leaked a later-level variable")
        own = tuple(range(prev_dim, lv.span_dim))
        eqs = tuple(poly.partial_derivative(i) for i in own)
        out.append(lt.LtsLevel(lv.energy, poly, own, eqs))
        prev_dim = lv.span_dim
    return lt.LeadingTermSystem(
        n,
        strat.adapted_basis,
        tuple(out),
        tuple(sorted(names)),
        tuple(f.label for f in strat.model.facets),
    )


def scenario_lts_by_rewrite(m, s):
    """region.scenario_lts as it was: level ranks by rank_rational, then lts_by_rewrite."""
    from orbifloer import ltsolver as lt
    from orbifloer.lattice import rank_rational
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
    strat = lt.EnergyStratification(m, None, tuple(levels), lt._adapted_basis(levels))
    return lts_by_rewrite(strat)


def signature_by_terms(lts):
    """ltsolver.lts_signature and signature_symbols as they were: (key, symbols).

    Read from the level polynomials' terms, coefficients keyed by their
    printed parts and symbols renamed s0, s1, ... by first appearance.
    """
    from orbifloer.series import QC

    names = {}
    for lv in lts.levels:
        for _, s in lv.poly.terms():
            c = s.leading_coefficient()
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
        terms = tuple(sorted((e, ckey(s.leading_coefficient())) for e, s in lv.poly.terms()))
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
