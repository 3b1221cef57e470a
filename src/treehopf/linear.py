"""Exact linear combinations over hashable basis keys.

All algebra elements in this package are finite maps ``key -> Fraction`` with
zero coefficients dropped.  The constructor sums Fraction terms: coproducts,
``+`` and the products outside the grafting algebra hand it their ``(key,
coeff)`` stream, repeated keys included.  The grafting algebra's series sums,
scalings and products do not come here: they run on a cached integer form
(see :mod:`treehopf.gl`).  Subclasses fix the key type and add their own
products; this module provides the vector-space operations, the
multiplicative extension of a map on letters and a deterministic text
renderer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable

Scalar = int | Fraction


class LinComb:
    """Finite rational linear combination; the empty map is zero."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | Iterable[tuple] | None = None):
        """Sum a mapping or a stream of ``(key, coeff)`` pairs, dropping zeros.

        Coefficients that are not Fractions already are converted, so every
        stored coefficient is a nonzero Fraction.
        """
        data: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                if type(coeff) is not Fraction:
                    coeff = Fraction(coeff)
                old = data.get(key)
                if old is not None:
                    coeff += old
                if coeff:
                    data[key] = coeff
                elif old is not None:
                    del data[key]
        self.terms = data

    # Subclass hook: rebuild an element of the same kind (carrying any extra
    # state such as a basis flag) from a terms mapping.
    def _build(self, terms) -> "LinComb":
        return type(self)(terms)

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")

    def get(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check_compatible(other)
        return self._build(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._build({k: -c for k, c in self.terms.items()})

    def scale(self, scalar: Scalar):
        s = Fraction(scalar)
        if not s:
            return self._build({})
        return self._build({k: s * c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self.scale(Fraction(1, 1) / Fraction(scalar))

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self.terms == other.terms

    # defining __eq__ leaves instances unhashable, which is intended

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


def add_all(zero: LinComb, xs: Iterable[LinComb]) -> LinComb:
    """``zero + x_1 + ... + x_n`` in one construction.

    ``zero`` fixes the kind of the result (and any basis); each ``x_i`` must
    be compatible with it, as for ``+``.  The result, insertion order
    included, is that of the repeated ``+``, without rebuilding the growing
    sum once per term.
    """

    def terms():
        yield from zero.terms.items()
        for x in xs:
            zero._check_compatible(x)
            yield from x.terms.items()

    return zero._build(terms())


def extend_multiplicatively(
    a: LinComb, image: Callable, one: LinComb, mul: Callable[[LinComb, LinComb], LinComb]
) -> LinComb:
    """Apply to ``a`` the linear map that is multiplicative over the letters of a key.

    Every key of ``a`` is a sequence of letters (the trees of a forest, the
    indices of a word).  It is sent to ``mul(...mul(mul(one, image(l1)),
    image(l2))..., image(lk))``; an anti-homomorphism passes a flipped ``mul``.
    The result has the kind of ``one``.
    """
    terms: list[tuple] = []
    for key, c in a.terms.items():
        part = one
        for letter in key:
            part = mul(part, image(letter))
        terms += ((k, c * v) for k, v in part.terms.items())
    return one._build(terms)


def format_linear(items: list[tuple[Fraction, str]]) -> str:
    """Render ``coeff * key`` terms as a signed sum; unit keys render as ``""``."""
    if not items:
        return "0"
    parts: list[str] = []
    for coeff, ktext in items:
        mag = abs(coeff)
        if not ktext:
            body = str(mag)
        elif mag == 1:
            body = ktext
        else:
            body = f"{mag}*{ktext}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(parts)
