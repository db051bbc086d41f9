"""Finite Novikov scalars and Laurent polynomials over them.

A Novikov scalar is a finite formal sum  a_1*T^{q_1} + ... + a_k*T^{q_k}
with strictly increasing exact rational exponents.  Coefficients are exact
Gaussian rationals, or degree-one polynomials in named symbols (used for
free bulk coefficients; products of two symbols are refused).  Laurent
polynomials in y1..yn over these scalars carry the potentials.

Exact and floating evaluation never mix: `eval_exact` demands T-free input
and stays in Gaussian rationals, `eval_complex` specializes T to a float.
The solver's exact palette does not go through `eval_exact`: it tests its
+-1 candidates on integer parity tables of the level equations
(`ltsolver._parity_rows`).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import inf
from operator import itemgetter

from .errors import NonLinearSymbolic, NotUnimodular, ZeroCoordinate
from . import lattice


class QC:
    """Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("QC is immutable")

    @staticmethod
    def of(x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return QC(x)
        if isinstance(x, complex):
            raise TypeError("floating complex cannot enter the exact path")
        raise TypeError(f"cannot coerce {type(x).__name__} to QC")

    def __add__(self, o):
        o = QC.of(o)
        return QC(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-QC.of(o))

    def __mul__(self, o):
        if isinstance(o, int):
            return QC(self.re * o, self.im * o)
        o = QC.of(o)
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, o):
        o = QC.of(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QC((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def __eq__(self, o):
        try:
            o = QC.of(o)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


class SymLin:
    """c0 + sum_k c_k * sym_k with QC coefficients; degree <= 1 enforced."""

    __slots__ = ("const", "lin")

    def __init__(self, const=0, lin=()):
        object.__setattr__(self, "const", QC.of(const))
        # merge repeated names first: QC has no order, so only names sort
        merged: dict = {}
        for n, c in lin:
            n, c = str(n), QC.of(c)
            merged[n] = merged[n] + c if n in merged else c
        clean = sorted(((n, c) for n, c in merged.items() if not c.is_zero()), key=itemgetter(0))
        object.__setattr__(self, "lin", tuple(clean))

    def __setattr__(self, *a):
        raise AttributeError("SymLin is immutable")

    @staticmethod
    def symbol(name: str) -> "SymLin":
        return SymLin(0, ((name, QC(1)),))

    def is_zero(self) -> bool:
        return self.const.is_zero() and not self.lin

    def is_constant(self) -> bool:
        return not self.lin

    def __eq__(self, o):
        if not isinstance(o, SymLin):
            return NotImplemented
        return self.const == o.const and self.lin == o.lin

    def __hash__(self):
        return hash((self.const, self.lin))

    def substitute(self, env: dict) -> QC:
        out = self.const
        for name, c in self.lin:
            if name not in env:
                raise KeyError(f"unbound symbol {name}")
            out = out + c * QC.of(env[name])
        return out

    def to_complex(self, env: dict | None = None) -> complex:
        out = self.const.to_complex()
        for name, c in self.lin:
            if env is None or name not in env:
                raise KeyError(f"unbound symbol {name}")
            val = env[name]
            val = val.to_complex() if isinstance(val, QC) else complex(val)
            out += c.to_complex() * val
        return out

    def __repr__(self):
        return f"SymLin({self.const!r}, {self.lin!r})"


# coefficient universe: QC or SymLin ------------------------------------------


def coeff_of(x):
    if isinstance(x, (QC, SymLin)):
        return x
    return QC.of(x)


def c_add(a, b):
    a, b = coeff_of(a), coeff_of(b)
    if isinstance(a, QC) and isinstance(b, QC):
        return a + b
    a = a if isinstance(a, SymLin) else SymLin(a)
    b = b if isinstance(b, SymLin) else SymLin(b)
    return SymLin(a.const + b.const, a.lin + b.lin)


def c_neg(a):
    a = coeff_of(a)
    if isinstance(a, QC):
        return -a
    return SymLin(-a.const, tuple((n, -c) for n, c in a.lin))


def c_mul(a, b):
    a = coeff_of(a)
    if isinstance(b, int):  # an integer multiple, without a QC made of b
        if isinstance(a, QC):
            return a * b
        return SymLin(a.const * b, tuple((n, c * b) for n, c in a.lin))
    b = coeff_of(b)
    if isinstance(a, QC) and isinstance(b, QC):
        return a * b
    if isinstance(a, SymLin) and isinstance(b, SymLin):
        if a.is_constant():
            a = a.const
        elif b.is_constant():
            b = b.const
        else:
            raise NonLinearSymbolic("product of two symbolic coefficients")
    if isinstance(a, QC):
        a, b = b, a  # now a is the SymLin
    return SymLin(a.const * b, tuple((n, c * b) for n, c in a.lin))


def c_is_zero(a) -> bool:
    return coeff_of(a).is_zero()


def c_to_complex(a, env: dict | None = None) -> complex:
    a = coeff_of(a)
    if isinstance(a, QC):
        return a.to_complex()
    return a.to_complex(env)


# ---------------------------------------------------------------------------


class NovikovScalar:
    """Finite formal sum of c * T^q terms, normalized."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict = {}
        for q, c in terms:
            q = Fraction(q)
            c = coeff_of(c)
            if q in merged:
                merged[q] = c_add(merged[q], c)
            else:
                merged[q] = c
        clean = tuple((q, merged[q]) for q in sorted(merged) if not c_is_zero(merged[q]))
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("NovikovScalar is immutable")

    @staticmethod
    def of(coeff, exponent=0) -> "NovikovScalar":
        return NovikovScalar(((Fraction(exponent), coeff_of(coeff)),))

    @staticmethod
    def zero() -> "NovikovScalar":
        return NovikovScalar()

    @staticmethod
    def one() -> "NovikovScalar":
        return NovikovScalar.of(1)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, o):
        return NovikovScalar(self.terms + o.terms)

    def __neg__(self):
        return NovikovScalar(tuple((q, c_neg(c)) for q, c in self.terms))

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if isinstance(o, NovikovScalar):
            return NovikovScalar(
                tuple((q1 + q2, c_mul(c1, c2)) for q1, c1 in self.terms for q2, c2 in o.terms)
            )
        return NovikovScalar(tuple((q, c_mul(c, o)) for q, c in self.terms))

    __rmul__ = __mul__

    def __eq__(self, o):
        return isinstance(o, NovikovScalar) and self.terms == o.terms

    def __hash__(self):
        return hash(self.terms)

    def valuation(self):
        return self.terms[0][0] if self.terms else inf

    def leading_coefficient(self):
        return self.terms[0][1] if self.terms else QC()

    def eval_complex(self, t: float, env: dict | None = None) -> complex:
        return sum(c_to_complex(c, env) * (t ** float(q)) for q, c in self.terms)

    def substitute_symbols(self, env: dict) -> "NovikovScalar":
        out = []
        for q, c in self.terms:
            out.append((q, c.substitute(env) if isinstance(c, SymLin) else c))
        return NovikovScalar(tuple(out))

    def __repr__(self):
        return f"NovikovScalar({self.terms!r})"


def valuation(s: NovikovScalar):
    """Minimal T-exponent; +inf for the zero scalar."""
    return s.valuation()


class LambdaClass(str, Enum):
    Lambda0 = "Lambda0"
    LambdaPlus = "LambdaPlus"
    Units = "Units"
    Neither = "Neither"


def lambda_membership(s: NovikovScalar) -> LambdaClass:
    """Classify by valuation: units (val 0, invertible lead), Lambda+, Lambda0, or neither."""
    v = s.valuation()
    if v == inf or v > 0:
        return LambdaClass.LambdaPlus
    if v < 0:
        return LambdaClass.Neither
    lead = s.leading_coefficient()
    if isinstance(lead, QC) and not lead.is_zero():
        return LambdaClass.Units
    return LambdaClass.Lambda0


# ---------------------------------------------------------------------------


class LaurentPoly:
    """Laurent polynomial in y1..yn with NovikovScalar coefficients.

    Treat instances as immutable; all operations return fresh objects.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=()):
        object.__setattr__(self, "n", int(n))
        clean: dict = {}
        for e, s in dict(terms).items() if isinstance(terms, dict) else terms:
            e = tuple(int(x) for x in e)
            if len(e) != self.n:
                raise ValueError("exponent vector has wrong length")
            if not isinstance(s, NovikovScalar):
                s = NovikovScalar.of(s)
            if e in clean:
                s = clean[e] + s
            if s.is_zero():
                clean.pop(e, None)
            else:
                clean[e] = s
        object.__setattr__(self, "_terms", {e: clean[e] for e in sorted(clean)})

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def zero(n: int) -> "LaurentPoly":
        return LaurentPoly(n)

    @staticmethod
    def monomial(e, s) -> "LaurentPoly":
        e = tuple(int(x) for x in e)
        return LaurentPoly(len(e), ((e, s if isinstance(s, NovikovScalar) else NovikovScalar.of(s)),))

    def terms(self):
        """Sorted (exponent_vector, NovikovScalar) pairs."""
        return tuple(self._terms.items())

    def coefficient(self, e) -> NovikovScalar:
        return self._terms.get(tuple(int(x) for x in e), NovikovScalar.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, o):
        return isinstance(o, LaurentPoly) and self.n == o.n and self._terms == o._terms

    def __add__(self, o):
        if self.n != o.n:
            raise ValueError("mixed ambient dimensions")
        return LaurentPoly(self.n, tuple(self._terms.items()) + tuple(o._terms.items()))

    def __neg__(self):
        return LaurentPoly(self.n, tuple((e, -s) for e, s in self._terms.items()))

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if isinstance(o, LaurentPoly):
            if self.n != o.n:
                raise ValueError("mixed ambient dimensions")
            out = []
            for e1, s1 in self._terms.items():
                for e2, s2 in o._terms.items():
                    out.append((tuple(a + b for a, b in zip(e1, e2)), s1 * s2))
            return LaurentPoly(self.n, out)
        return LaurentPoly(self.n, tuple((e, s * o) for e, s in self._terms.items()))

    __rmul__ = __mul__

    def partial_derivative(self, i: int) -> "LaurentPoly":
        """d/dy_i: exponent e picks up factor e_i and drops by one in slot i."""
        out = []
        for e, s in self._terms.items():
            if e[i] == 0:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out.append((e2, s * e[i]))
        return LaurentPoly(self.n, out)

    def log_derivative(self, i: int) -> "LaurentPoly":
        """y_i * d/dy_i: same supports, coefficients scaled by e_i."""
        out = []
        for e, s in self._terms.items():
            if e[i] == 0:
                continue
            out.append((e, s * e[i]))
        return LaurentPoly(self.n, out)

    def eval_complex(self, y, t: float, env: dict | None = None) -> complex:
        if len(y) != self.n:
            raise ValueError("point has wrong length")
        if any(z == 0 for z in y):
            raise ZeroCoordinate("torus coordinates must be nonzero")
        total = 0j
        for e, s in self._terms.items():
            mono = 1 + 0j
            for z, k in zip(y, e):
                mono *= complex(z) ** k
            total += s.eval_complex(t, env) * mono
        return total

    def eval_exact(self, y, env: dict | None = None) -> QC:
        """Exact evaluation; requires a T-free polynomial and exact nonzero y."""
        vals = [QC.of(z) for z in y]
        if any(z.is_zero() for z in vals):
            raise ZeroCoordinate("torus coordinates must be nonzero")
        total = QC()
        for e, s in self._terms.items():
            if any(q != 0 for q, _ in s.terms):
                raise ValueError("eval_exact needs a T-free polynomial")
            c = QC()
            for q, cf in s.terms:
                if isinstance(cf, SymLin):
                    cf = cf.substitute(env or {})
                c = c + cf
            mono = QC(1)
            for z, k in zip(vals, e):
                if k >= 0:
                    for _ in range(k):
                        mono = mono * z
                else:
                    for _ in range(-k):
                        mono = mono / z
            total = total + c * mono
        return total

    def __repr__(self):
        return f"LaurentPoly({self.n}, {tuple(self._terms.items())!r})"


def monomial_rewrite(p: LaurentPoly, basis_change) -> LaurentPoly:
    """Substitute y_i = prod_j y'_j^(M_ij): exponent row vectors map e -> e M.

    M must be unimodular so the substitution is invertible on the torus.
    """
    m = lattice.mat(basis_change)
    if len(m) != p.n or any(len(r) != p.n for r in m):
        raise NotUnimodular("basis change must be square of the ambient dimension")
    if abs(lattice.det_int(m)) != 1:
        raise NotUnimodular("basis change must have determinant +-1")
    mt = lattice.transpose(m)
    out = []
    for e, s in p.terms():
        out.append((lattice.mat_vec(mt, e), s))
    return LaurentPoly(p.n, out)


# ---------------------------------------------------------------------------
# String rendering, round-trip parseable.


def _fmt_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def render_coeff(c) -> str:
    c = coeff_of(c)
    if isinstance(c, SymLin):
        parts = []
        if not c.const.is_zero():
            parts.append(render_coeff(c.const))
        for name, q in c.lin:
            if q == QC(1):
                parts.append(name)
            else:
                parts.append(f"{render_coeff(q)}*{name}")
        return "(" + " + ".join(parts) + ")" if len(parts) != 1 else parts[0]
    if c.im == 0:
        return _fmt_fraction(c.re)
    return f"({_fmt_fraction(c.re)}{'+' if c.im >= 0 else '-'}{_fmt_fraction(abs(c.im))}i)"


def render_scalar_term(q: Fraction, c) -> str:
    cs = render_coeff(c)
    if q == 0:
        return cs
    return f"{cs}*T^{{{_fmt_fraction(q)}}}"


def render_poly(p: LaurentPoly) -> str:
    """Flat sum like `2*T^{1/2}*y1^2*y2^-1 + ...`; `0` for the zero polynomial."""
    pieces = []
    for e, s in p.terms():
        mono = "*".join(
            f"y{i + 1}" + (f"^{k}" if k != 1 else "") for i, k in enumerate(e) if k != 0
        )
        for q, c in s.terms:
            head = render_scalar_term(q, c)
            pieces.append(f"{head}*{mono}" if mono else head)
    return " + ".join(pieces) if pieces else "0"


def parse_poly(text: str, n: int) -> LaurentPoly:
    """Inverse of render_poly for constant (symbol-free) coefficients."""
    import re

    text = text.strip()
    if text == "0":
        return LaurentPoly.zero(n)
    out = []
    for piece in text.split(" + "):
        coeff = QC(1)
        q = Fraction(0)
        e = [0] * n
        for factor in piece.split("*"):
            factor = factor.strip()
            m = re.fullmatch(r"T\^\{(-?\d+(?:/\d+)?)\}", factor)
            if m:
                q = Fraction(m.group(1))
                continue
            m = re.fullmatch(r"y(\d+)(?:\^(-?\d+))?", factor)
            if m:
                e[int(m.group(1)) - 1] = int(m.group(2) or 1)
                continue
            m = re.fullmatch(r"\((-?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)i\)", factor)
            if m:
                coeff = coeff * QC(Fraction(m.group(1)), Fraction(m.group(2)))
                continue
            coeff = coeff * QC(Fraction(factor))
        out.append((tuple(e), NovikovScalar.of(coeff, q)))
    return LaurentPoly(n, out)
