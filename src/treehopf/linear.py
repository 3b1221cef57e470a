"""Exact linear combinations over hashable basis keys.

Every algebra element in this package is stored in one integer form, ``(den,
((key, num), ...))``: numerators over one positive denominator in lowest
terms, no zero numerator, ``(1, ())`` for zero.  Sums, scalings, products and
the multiplicative extension of a map on letters sum integer numerators and
end in one builder, ``from_ints``, which drops zeros and reduces by one gcd;
the constructor sums ``(key, coeff)`` pairs given by hand.  Every map fixed
on generators (the CK and NSym coproducts and antipodes, the change to
complete words) is one ``extend_multiplicatively``, whose rows are summed as
by ``combine``.  ``terms``, the public map ``key -> nonzero Fraction``, is
built on first read; equality and truth read the integer form.  Subclasses
fix the key type and add their own products; this module also renders a
deterministic text form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable

Scalar = int | Fraction


class LinComb:
    """Finite rational linear combination; ``terms`` lists the keys of ``ints`` in order."""

    __slots__ = ("terms", "ints")

    def __init__(self, terms: dict | Iterable[tuple] | None = None):
        """Sum a mapping or a stream of ``(key, coeff)`` pairs, dropping zeros.

        Coefficients that are neither ints nor Fractions are converted to
        Fractions.  A key whose sum cancels is dropped, and moves to the end
        if it comes back, as under repeated ``+``.
        """
        data: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                if type(coeff) is not Fraction and type(coeff) is not int:
                    coeff = Fraction(coeff)
                old = data.get(key)
                if old is not None:
                    coeff += old
                if coeff:
                    data[key] = coeff
                elif old is not None:
                    del data[key]
        # The lcm of lowest-terms denominators leaves gcd(den, *nums) = 1.
        dens = [c.denominator for c in data.values()]
        d = lcm(*dens)
        nums = [(k, c.numerator * (d // e)) for (k, c), e in zip(data.items(), dens)]
        self.ints = (d, tuple(nums))

    def __getattr__(self, name):
        # Reached only while the terms slot is unset: build it once.
        if name != "terms":
            raise AttributeError(name)
        den, nums = self.ints
        terms = self.terms = {k: Fraction(n, den) for k, n in nums}
        return terms

    @classmethod
    def from_ints(cls, den: int, acc: dict):
        """The element sum of ``n/den * key`` over acc (den > 0), zeros dropped, in lowest terms."""
        out = object.__new__(cls)
        g = gcd(den, *acc.values())
        if g == 1:
            out.ints = (den, tuple(filter(itemgetter(1), acc.items())))
        else:
            out.ints = (den // g, tuple([(k, n // g) for k, n in acc.items() if n]))
        return out

    # Subclass hook: from_ints for an element of the same kind as self,
    # carrying any extra state such as a basis flag.
    def _like(self, den: int, acc: dict):
        return type(self).from_ints(den, acc)

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")

    def get(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def is_zero(self) -> bool:
        return not self.ints[1]

    def __bool__(self):
        return bool(self.ints[1])

    def __add__(self, other):
        return add_all(self, (other,))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        den, nums = self.ints
        return self._like(den, {k: -n for k, n in nums})

    def scale(self, scalar: Scalar):
        if type(scalar) is not Fraction and type(scalar) is not int:
            scalar = Fraction(scalar)
        den, nums = self.ints
        a = scalar.numerator
        return self._like(den * scalar.denominator, {k: a * n for k, n in nums})

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self.scale(1 / Fraction(scalar))

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        # Both forms are in lowest terms, so equal elements have equal
        # denominators and equal key -> numerator maps, in any key order.
        (da, a), (db, b) = self.ints, other.ints
        return da == db and (a == b or dict(a) == dict(b))

    # defining __eq__ leaves instances unhashable, which is intended

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


def combine(zero: LinComb, parts: Iterable[tuple[int, LinComb]], den: int = 1) -> LinComb:
    """The sum of ``n/den * x`` over the ``(n, x)`` in parts, of the kind of zero.

    n is an int and den > 0; each x must be compatible with zero, as for
    ``+``.  The numerators are summed over the lcm of the denominators; a
    key whose sum cancels is dropped and moves to the end if it comes back,
    so summing with n = den = 1 keeps the key order of the repeated ``+``.
    A single part with coefficient 1 is returned as it is.
    """
    forms = []
    for n, x in parts:
        zero._check_compatible(x)
        forms.append((n, x.ints))
    if len(forms) == 1 and forms[0][0] == den == 1:
        return x
    return _sum_rows(zero, forms, den)


def _sum_rows(zero: LinComb, rows, den: int) -> LinComb:
    # The sum of n/(den*d) * row over the (n, (d, row)) in rows, of the kind
    # of zero: one sum over the lcm of the d, a cancelled key dropped at once.
    total = lcm(*[d for _, (d, _) in rows])
    acc: dict = {}
    get = acc.get
    for n, (d, row) in rows:
        m = n * (total // d)
        for k, v in row:
            v = get(k, 0) + m * v
            if v:
                acc[k] = v
            else:
                del acc[k]
    return zero._like(den * total, acc)


def bilinear(zero: LinComb, pairs, table: Callable) -> LinComb:
    """The sum of the products x * y over the (x, y) in pairs, of the kind of zero.

    Both factors of each pair must be compatible with zero, as for ``+``.
    ``table(kx, ky)`` lists the product of two keys as ``((key, n), ...)``
    with int n; the numerators are summed over one common denominator.
    """
    check = zero._check_compatible
    factors = []
    for x, y in pairs:
        check(x)
        check(y)
        factors.append((*x.ints, *y.ints))
    den = lcm(*[dx * dy for dx, _, dy, _ in factors])
    acc: dict = {}
    get = acc.get
    for dx, xs, dy, ys in factors:
        m = den // (dx * dy)
        for kx, nx in xs:
            for ky, ny in ys:
                nxy = m * nx * ny
                for key, c in table(kx, ky):
                    acc[key] = get(key, 0) + nxy * c
    return zero._like(den, acc)


def add_all(zero: LinComb, xs: Iterable[LinComb]) -> LinComb:
    """``zero + x_1 + ... + x_n`` in one integer sum.

    ``zero`` fixes the kind of the result (and any basis); each ``x_i`` must
    be compatible with it, as for ``+``.  The result, key order included, is
    that of the repeated ``+``, without rebuilding the growing sum once per
    term.
    """
    return combine(zero, [(1, zero)] + [(1, x) for x in xs])


def extend_multiplicatively(
    a: LinComb, letters: Callable, image: Callable, one: LinComb, key_mul: Callable
) -> LinComb:
    """Apply to ``a`` the linear map that is multiplicative over the letters of a key.

    ``letters(key)`` lists a key's letters (the trees of a forest, the
    indices of a word); the key is sent to ``image(l1) * ... * image(lk)``,
    the empty key to ``one``, whose kind the images and the result share.
    ``key_mul(k1, k2)`` is the key of the product of two of their keys.  The
    product is multiplied out from the left in integers and the rows are
    summed as by ``combine``, so the result, key order included, is that of
    multiplying the images out with ``bilinear``.  A lone one-letter key
    with coefficient 1 is sent to its image itself.
    """
    den, nums = a.ints
    if den == 1 and len(nums) == 1 and nums[0][1] == 1:
        word = letters(nums[0][0])
        if len(word) == 1:
            return image(word[0])
    rows = []
    for key, n in nums:
        word = letters(key)
        d, row = image(word[0]).ints if word else one.ints
        for letter in word[1:]:
            dl, tail = image(letter).ints
            d *= dl
            acc: dict = {}
            get = acc.get
            for k, v in row:
                for kl, vl in tail:
                    kk = key_mul(k, kl)
                    acc[kk] = get(kk, 0) + v * vl
            row = [kv for kv in acc.items() if kv[1]]
        rows.append((n, (d, row)))
    return _sum_rows(one, rows, den)


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
