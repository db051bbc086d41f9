"""Exact coefficients, and the T-free Laurent polynomials that print a level.

A coefficient is one QC: a rational constant plus rational multiples of
named symbols, the free bulk coefficients of a region scenario.  A
constant is the QC whose symbol part is empty, so no caller asks which
kind it holds: ``const`` (a Fraction), ``lin`` (sorted (name, Fraction)
pairs, empty for a constant), ``+``, ``* k`` for an integer k,
``is_zero()`` and ``to_complex(env)``, which a constant computes without
env.  A potential is its term list (potential.PotentialAtFiber)
and a leading term level its exponent rows (ltsolver.LtsLevel); evaluate
sums such rows at a point, and a LaurentPoly is their T-free view, for
printing (render_poly) and for checking a certificate (eval_complex).
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .errors import ZeroCoordinate


class QC:
    """An exact coefficient c0 + sum_k c_k * sym_k, c0 and every c_k rational.

    ``const`` is the Fraction c0 and ``lin`` the sorted (name, Fraction)
    pairs, repeated names merged and zeros dropped, empty for a constant.
    A constant hashes as its Fraction, so QC(1) == 1 agrees with hashing.
    """

    __slots__ = ("const", "lin")

    def __init__(self, const=0, lin=()):
        object.__setattr__(self, "const", Fraction(const))
        if lin:
            merged: dict = {}
            for n, c in lin:
                merged[n] = merged.get(n, 0) + Fraction(c)
            lin = tuple(sorted((n, c) for n, c in merged.items() if c))
        object.__setattr__(self, "lin", lin or ())

    def __setattr__(self, *a):
        raise AttributeError("QC is immutable")

    @staticmethod
    def of(x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return QC(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to QC")

    @staticmethod
    def symbol(name: str) -> "QC":
        return QC(0, ((name, 1),))

    def __add__(self, o: "QC"):
        return QC(self.const + o.const, self.lin + o.lin)

    def __mul__(self, k: int):
        """The integer multiple k*self."""
        return QC(self.const * k, [(n, c * k) for n, c in self.lin])

    def __eq__(self, o):
        try:
            o = QC.of(o)
        except TypeError:
            return NotImplemented
        return self.const == o.const and self.lin == o.lin

    def __hash__(self):
        return hash((self.const, self.lin)) if self.lin else hash(self.const)

    def is_zero(self) -> bool:
        return self.const == 0 and not self.lin

    def to_complex(self, env: dict | None = None) -> complex:
        """The value, symbols read from env (QC or complex values); a constant needs no env."""
        out = complex(self.const)
        for name, c in self.lin:
            if env is None or name not in env:
                raise KeyError(f"unbound symbol {name}")
            val = env[name]
            out += complex(c) * (val.to_complex() if isinstance(val, QC) else complex(val))
        return out

    def __repr__(self):
        return f"QC({self.const!r}, {self.lin!r})"


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
    if not c.lin:
        return str(c.const)
    parts = [str(c.const)] if c.const else []
    parts += [name if q == 1 else f"{q}*{name}" for name, q in c.lin]
    return "(" + " + ".join(parts) + ")" if len(parts) != 1 else parts[0]


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
