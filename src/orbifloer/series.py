"""Exact coefficients, and the T-free Laurent polynomials that print a level.

Coefficients are exact rationals (QC) or degree-one polynomials in named
symbols (SymLin, for free bulk coefficients).  Both answer one
protocol, so no caller asks which it holds: ``const`` (a QC), ``lin``
(sorted (name, QC) pairs, empty for a QC), ``+``, ``* k`` for an integer
k, ``is_zero()`` and ``to_complex(env)``, which a constant computes
without env.  A potential is its term list (potential.PotentialAtFiber)
and a leading term level its exponent rows (ltsolver.LtsLevel); evaluate
sums such rows at a point, and a LaurentPoly is their T-free view, for
printing (render_poly) and for checking a certificate (eval_complex).
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .errors import ZeroCoordinate


class QC:
    """An exact rational coefficient, held as one Fraction."""

    __slots__ = ("q",)
    lin = ()

    def __init__(self, q=0):
        object.__setattr__(self, "q", Fraction(q))

    def __setattr__(self, *a):
        raise AttributeError("QC is immutable")

    @staticmethod
    def of(x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return QC(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to QC")

    @property
    def const(self) -> "QC":
        return self

    def __add__(self, o):
        if isinstance(o, SymLin):
            return o + self
        return QC(self.q + QC.of(o).q)

    def __mul__(self, o):
        return QC(self.q * (o if isinstance(o, int) else QC.of(o).q))

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, o):
        try:
            o = QC.of(o)
        except TypeError:
            return NotImplemented
        return self.q == o.q

    def __hash__(self):
        return hash(self.q)

    def is_zero(self) -> bool:
        return self.q == 0

    def to_complex(self, env: dict | None = None) -> complex:
        return complex(self.q)

    def __repr__(self):
        return f"QC({self.q!r})"


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

    def __add__(self, o):
        return SymLin(self.const + o.const, self.lin + o.lin)

    def __mul__(self, k: int):
        """The integer multiple k*self, without a QC made of k."""
        return SymLin(self.const * k, tuple((n, c * k) for n, c in self.lin))

    def __eq__(self, o):
        if not isinstance(o, SymLin):
            return NotImplemented
        return self.const == o.const and self.lin == o.lin

    def __hash__(self):
        return hash((self.const, self.lin))

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


# ---------------------------------------------------------------------------


class LaurentPoly:
    """A T-free Laurent polynomial in y1..yn: a leading term level or one of its equations.

    Its terms are (exponent vector, coefficient) pairs sorted by exponent.
    The exponents are distinct and the coefficients nonzero, as in the
    level rows it is built from; nothing is merged.  Treat instances as
    immutable.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=()):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "_terms", tuple(sorted(terms, key=itemgetter(0))))

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    def terms(self):
        """Sorted (exponent_vector, coefficient) pairs."""
        return self._terms

    def eval_complex(self, y, t: float, env: dict | None = None) -> complex:
        """The value at the torus point y; a level is T-free, so t does not enter it."""
        if len(y) != self.n:
            raise ValueError("point has wrong length")
        if any(z == 0 for z in y):
            raise ZeroCoordinate("torus coordinates must be nonzero")
        return evaluate(self._terms, y, env)

    def __repr__(self):
        return f"LaurentPoly({self.n}, {self._terms!r})"


def evaluate(terms, y, env: dict | None = None) -> complex:
    """sum c * y^e over (exponent, coefficient) terms, symbols valued in env."""
    total = 0j
    for e, c in terms:
        mono = 1 + 0j
        for z, k in zip(y, e):
            mono *= complex(z) ** k
        total += c.to_complex(env) * mono
    return total


# ---------------------------------------------------------------------------
# String rendering, round-trip parseable.


def render_coeff(c) -> str:
    if c.lin:
        parts = []
        if not c.const.is_zero():
            parts.append(render_coeff(c.const))
        for name, q in c.lin:
            if q == QC(1):
                parts.append(name)
            else:
                parts.append(f"{render_coeff(q)}*{name}")
        return "(" + " + ".join(parts) + ")" if len(parts) != 1 else parts[0]
    return str(c.const.q)


def render_poly(p: LaurentPoly) -> str:
    """Flat sum like `2*y1^2*y2^-1 + ...`; `0` for the zero polynomial."""
    pieces = []
    for e, c in p.terms():
        mono = "*".join(
            f"y{i + 1}" + (f"^{k}" if k != 1 else "") for i, k in enumerate(e) if k != 0
        )
        head = render_coeff(c)
        pieces.append(f"{head}*{mono}" if mono else head)
    return " + ".join(pieces) if pieces else "0"
