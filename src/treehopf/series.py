"""Truncated formal power series over an associative unital algebra.

The parameter t is central and all arithmetic is exact modulo t**(N+1).
The engine is generic over a small algebra interface (zero, one, sum, scale,
dot, eq, describe): :class:`LinCombOps` serves every ``LinComb`` carrier
(free-algebra and tree-algebra elements); the tests add a carrier of rational
scalars.  Elements test zero by truth value, so products, inverses, exp and
log hand ``dot`` only pairs of nonzero factors.  :class:`NCSSystem` holds
the five series (f, g, d, h, m) of one system.  Coefficients beyond the
truncation order are silently dropped; that is the meaning of truncation,
never an error.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, NamedTuple

from .linear import LinComb, add_all


class LinCombOps:
    """The algebra interface of the series engine over one LinComb carrier.

    ``zero`` and ``one`` are elements of the carrier, ``dot(pairs)`` sums the
    products x * y over the pairs in one pass, and ``describe`` renders an
    element.  Series compare their ops by identity, so each carrier keeps one
    instance and series over different carriers never mix.
    """

    __slots__ = ("_zero", "_one", "dot", "describe")

    def __init__(self, zero: LinComb, one: LinComb, dot: Callable, describe: Callable):
        self._zero, self._one, self.dot, self.describe = zero, one, dot, describe

    def zero(self) -> LinComb:
        return self._zero

    def one(self) -> LinComb:
        return self._one

    def sum(self, xs) -> LinComb:
        """The sum of all of xs (zero when empty), built in one pass."""
        return add_all(self._zero, xs)

    def scale(self, c: Fraction, x: LinComb) -> LinComb:
        self._zero._check_compatible(x)
        return x.scale(c)

    def eq(self, x, y) -> bool:
        return x == y


class TruncSeries:
    """Coefficients c[0..N] of a series known exactly modulo t**(N+1).

    Read-only: a series may sit in a memo table shared by every caller.
    """

    __slots__ = ("ops", "coeffs")

    def __init__(self, ops, coeffs: tuple):
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"TruncSeries is read-only; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TruncSeries is read-only; cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"TruncSeries(ops={self.ops!r}, coeffs={self.coeffs!r})"

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, ops, order: int) -> "TruncSeries":
        return cls(ops, tuple(ops.zero() for _ in range(order + 1)))

    @classmethod
    def one(cls, ops, order: int) -> "TruncSeries":
        return cls(ops, (ops.one(),) + tuple(ops.zero() for _ in range(order)))

    def _require_same(self, other: "TruncSeries"):
        if self.ops is not other.ops:
            raise ValueError("series are defined over different algebras")
        if self.order != other.order:
            raise ValueError(f"truncation order mismatch: {self.order} vs {other.order}")

    def coeff(self, degree: int):
        return self.coeffs[degree] if 0 <= degree <= self.order else self.ops.zero()

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._require_same(other)
        ops = self.ops
        return TruncSeries(ops, tuple(ops.sum(pair) for pair in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "TruncSeries":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "TruncSeries":
        ops = self.ops
        c = Fraction(c)
        return TruncSeries(ops, tuple(ops.scale(c, a) for a in self.coeffs))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """Cauchy product modulo t**(order+1); pairs with a zero factor are skipped."""
        self._require_same(other)
        ops = self.ops
        a, b = self.coeffs, other.coeffs
        support = [k for k, x in enumerate(a) if x]
        return TruncSeries(
            ops,
            tuple(
                ops.dot([(a[k], b[n - k]) for k in support if k <= n and b[n - k]])
                for n in range(self.order + 1)
            ),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._require_same(other)
        return all(self.ops.eq(a, b) for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None  # type: ignore[assignment]

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError(f"cannot extend a series truncated at {self.order} to {order}")
        return TruncSeries(self.ops, self.coeffs[: order + 1])

    def alternate(self) -> "TruncSeries":
        """Substitute t -> -t."""
        ops = self.ops
        return TruncSeries(
            ops,
            tuple(ops.scale(Fraction(-1), a) if m % 2 else a for m, a in enumerate(self.coeffs)),
        )

    def derivative(self) -> "TruncSeries":
        """d/dt; the result is known only modulo t**order."""
        if self.order < 1:
            raise ValueError("cannot differentiate a series truncated at order 0")
        ops = self.ops
        return TruncSeries(
            ops,
            tuple(ops.scale(Fraction(m), self.coeffs[m]) for m in range(1, self.order + 1)),
        )

    def inverse_right(self) -> "TruncSeries":
        """b with self * b = 1; requires unit constant term."""
        return self._inverse(flip=False)

    def inverse_left(self) -> "TruncSeries":
        """b with b * self = 1; requires unit constant term."""
        return self._inverse(flip=True)

    def _inverse(self, flip: bool) -> "TruncSeries":
        # b_n = -sum_{k=1..n} self_k * b_{n-k}, or b_{n-k} * self_k when flip:
        # self's coefficient takes its side in the product being inverted.
        ops = self.ops
        a = self.coeffs
        if not ops.eq(a[0], ops.one()):
            raise ValueError("inverse needs a series with unit constant term")
        support = [k for k in range(1, self.order + 1) if a[k]]
        out = [ops.one()]
        for n in range(1, self.order + 1):
            pairs = [(a[k], out[n - k]) for k in support if k <= n and out[n - k]]
            acc = ops.dot([(y, x) for x, y in pairs] if flip else pairs)
            out.append(ops.scale(Fraction(-1), acc))
        return TruncSeries(ops, tuple(out))

    def exp(self) -> "TruncSeries":
        """Exponential power sum; requires zero constant term."""
        ops = self.ops
        if not ops.eq(self.coeffs[0], ops.zero()):
            raise ValueError("exp needs a series with zero constant term")
        return self._power_sum([Fraction(1, factorial(k)) for k in range(self.order + 1)])

    def log(self) -> "TruncSeries":
        """Logarithm power sum; requires unit constant term."""
        ops = self.ops
        if not ops.eq(self.coeffs[0], ops.one()):
            raise ValueError("log needs a series with unit constant term")
        u = self - TruncSeries.one(ops, self.order)
        weights = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, self.order + 1)]
        return u._power_sum(weights)

    def _power_sum(self, weights: list[Fraction]) -> "TruncSeries":
        # sum_k weights[k] * self**k for a series with zero constant term, by
        # Horner's rule: w_0 + self * (w_1 + self * (w_2 + ...)).  With v the
        # lowest degree of self, self**k vanishes below degree v*k, so the
        # nests start at k = order // v and the k-th is needed only up to
        # degree order - v*k.  A zero self leaves the constant w_0.
        ops = self.ops
        s = self.coeffs
        order = self.order
        support = [j for j in range(1, order + 1) if s[j]]
        v = support[0] if support else order + 1
        nest: list = []
        for k in range(order // v, -1, -1):
            inner = nest
            nest = [ops.scale(weights[k], ops.one()) if weights[k] else ops.zero()] + [
                ops.dot([(s[j], inner[n - j]) for j in support if j <= n and inner[n - j]])
                for n in range(1, order - v * k + 1)
            ]
        return TruncSeries(ops, tuple(nest))


class NCSSystem(NamedTuple):
    """A 5-tuple of truncated series sharing one carrier algebra."""

    carrier: str
    order: int
    f: TruncSeries
    g: TruncSeries
    d: TruncSeries
    h: TruncSeries
    m: TruncSeries

    def series_by_name(self, name: str) -> TruncSeries:
        if name not in ("f", "g", "d", "h", "m"):
            raise ValueError(f"unknown series {name!r}")
        return getattr(self, name)
