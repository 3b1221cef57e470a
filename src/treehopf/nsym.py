"""Noncommutative symmetric functions and quasi-symmetric functions.

NSym is the free associative algebra on generators indexed by positive
integers; its basis words are tuples of indices and the weight of a word is
the sum of its letters.  The five classical generating functions (elementary,
complete, and the three kinds of power sums) are produced by solving the
defining series equations by truncated arithmetic, never by transcribing
closed formulas.  QSym, the graded dual, is carried in the monomial basis
indexed by compositions, with the quasi-shuffle product and deconcatenation
coproduct; the duality pairing matches products of complete functions with
monomials.  Products, coproducts and the pairing sum integer numerators
(see :mod:`treehopf.linear`).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from . import memo
from .linear import LinComb, bilinear, combine, extend_multiplicatively, format_linear
from .series import LinCombOps, NCSSystem, TruncSeries

Word = tuple[int, ...]
Composition = tuple[int, ...]

EMPTY_WORD: Word = ()


def word_weight(w: Word) -> int:
    return sum(w)


class NSymElem(LinComb):
    """Rational combination of free-algebra words."""

    __slots__ = ()

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (word_weight(kv[0]), kv[0]))


class NSymTensor(LinComb):
    """Element of the tensor square of the free algebra."""

    __slots__ = ()


class QSymElem(LinComb):
    """Rational combination of monomial quasi-symmetric functions."""

    __slots__ = ()

    def sorted_terms(self) -> list[tuple[Composition, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (word_weight(kv[0]), kv[0]))


class QSymTensor(LinComb):
    """Element of the tensor square of QSym in the monomial basis."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# NSym: algebra and Hopf structure
# ---------------------------------------------------------------------------

def unit() -> NSymElem:
    return NSymElem({EMPTY_WORD: 1})


def generator(m: int) -> NSymElem:
    """The m-th elementary generator as a one-letter word."""
    if m < 1:
        raise ValueError("generator index must be positive")
    return NSymElem({(m,): 1})


def mul(a: NSymElem, b: NSymElem) -> NSymElem:
    """Concatenation product."""
    return dot(((a, b),))


def dot(pairs) -> NSymElem:
    """The sum of the concatenation products x * y over the (x, y) in pairs, in one pass."""
    return bilinear(NSymElem(), pairs, lambda wa, wb: ((wa + wb, 1),))


def _pair_concat(x, y):
    return x[0] + y[0], x[1] + y[1]


def tensor_mul(a: NSymTensor, b: NSymTensor) -> NSymTensor:
    return bilinear(a, ((a, b),), lambda x, y: ((_pair_concat(x, y), 1),))


def tensor_unit() -> NSymTensor:
    return NSymTensor({(EMPTY_WORD, EMPTY_WORD): 1})


def _generator_coproduct(m: int) -> NSymTensor:
    return NSymTensor.from_ints(
        1, {((k,) if k else EMPTY_WORD, (m - k,) if m - k else EMPTY_WORD): 1 for k in range(m + 1)}
    )


def coproduct(a: NSymElem) -> NSymTensor:
    """Algebra-map coproduct fixed by the divided-power rule on generators."""
    return extend_multiplicatively(a, tuple, _generator_coproduct, tensor_unit(), _pair_concat)


def counit(a: NSymElem) -> Fraction:
    return Fraction(next((n for w, n in a.ints[1] if w == EMPTY_WORD), 0), a.ints[0])


@memo.memoized
def _antipode_generator(m: int) -> NSymElem:
    # Connected-graded recurrence from m(S x id)Delta = unit*counit:
    # S(m) = -[m] - sum over 0 < k < m of S(k) * [m - k].
    parts = [(-1, generator(m))]
    parts += ((-1, mul(_antipode_generator(k), generator(m - k))) for k in range(1, m))
    return combine(NSymElem(), parts)


def antipode(a: NSymElem) -> NSymElem:
    """Hopf antipode, extended over words as an algebra anti-homomorphism.

    S(w1 ... wk) = S(wk) ... S(w1): the multiplicative extension of S on the
    generators, applied to the reversed words.
    """
    return extend_multiplicatively(omega_lambda(a), tuple, _antipode_generator, unit(), add)


def omega_lambda(a: NSymElem) -> NSymElem:
    """The anti-involution fixing every elementary generator: reverse words."""
    den, nums = a.ints
    return NSymElem.from_ints(den, {w[::-1]: n for w, n in nums})


# ---------------------------------------------------------------------------
# The five generating functions
# ---------------------------------------------------------------------------

@memo.memoized
def pi_system(order: int) -> NCSSystem:
    """Solve the defining equations over NSym by truncated-series arithmetic.

    The universal system over the carrier "nsym", truncated at `order`:

    * f, the elementary functions: sum of t^m times the m-th generator,
    * g, the complete functions: the two-sided inverse of f(-t),
    * d = log g, whose coefficient of t^m is the m-th power sum of the
      second kind divided by m,
    * h, the power sums of the first kind: solves g' = g * h,
    * m, the power sums of the third kind: solves g' = m * g.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    f = TruncSeries(SERIES_OPS, (unit(),) + tuple(generator(m) for m in range(1, order + 1)))
    g = f.alternate().inverse_right()
    g_prime = g.derivative()
    f_neg_cut = f.alternate().truncate(order - 1)
    return NCSSystem("nsym", order, f, g, g.log(), f_neg_cut * g_prime, g_prime * f_neg_cut)


def complete_element(m: int) -> NSymElem:
    """The m-th complete function expanded in elementary words."""
    if m == 0:
        return unit()
    return pi_system(m).g.coeffs[m]


def power_first_element(m: int) -> NSymElem:
    """The m-th power sum of the first kind."""
    return pi_system(m).h.coeffs[m - 1]


def power_second_element(m: int) -> NSymElem:
    """The m-th power sum of the second kind (the series carries it over m)."""
    return pi_system(m).d.coeffs[m].scale(m)


def power_third_element(m: int) -> NSymElem:
    """The m-th power sum of the third kind."""
    return pi_system(m).m.coeffs[m - 1]


def complete_word(comp: Composition) -> NSymElem:
    """Product of complete functions along a composition, in elementary words."""
    return extend_multiplicatively(
        NSymElem.from_ints(1, {comp: 1}), tuple, complete_element, unit(), add
    )


# The m-th elementary generator in complete-basis words.  The identity
# lambda(-t) sigma(t) = 1 is symmetric in lambda and sigma, so inverting
# sigma(-t) repeats the solve that gives sigma from lambda: the expansion is
# that of complete_element, its one-letter words read as complete functions.
elementary_in_complete = complete_element


def to_complete_basis(a: NSymElem) -> NSymElem:
    """Rewrite an elementary-word element as complete-basis words."""
    return extend_multiplicatively(a, tuple, complete_element, unit(), add)


# ---------------------------------------------------------------------------
# QSym: monomial basis, quasi-shuffle, deconcatenation, duality
# ---------------------------------------------------------------------------

def qsym_unit() -> QSymElem:
    return QSymElem({(): 1})


def monomial(comp: Composition) -> QSymElem:
    if any(p < 1 for p in comp):
        raise ValueError("composition parts must be positive")
    return QSymElem({tuple(comp): 1})


@memo.memoized
def _quasi_shuffle(left: Composition, right: Composition) -> tuple[tuple[Composition, int], ...]:
    if not left:
        return ((right, 1),)
    if not right:
        return ((left, 1),)
    counts: dict[Composition, int] = {}
    for head, rest in (
        ((left[0],), _quasi_shuffle(left[1:], right)),
        ((right[0],), _quasi_shuffle(left, right[1:])),
        ((left[0] + right[0],), _quasi_shuffle(left[1:], right[1:])),
    ):
        for comp, n in rest:
            k = head + comp
            counts[k] = counts.get(k, 0) + n
    return tuple(sorted(counts.items()))


def qsym_mul(a: QSymElem, b: QSymElem) -> QSymElem:
    """Quasi-shuffle (overlapping shuffle) product on the monomial basis."""
    return bilinear(a, ((a, b),), _quasi_shuffle)


def qsym_coproduct(a: QSymElem) -> QSymTensor:
    """Deconcatenation coproduct."""
    den, nums = a.ints
    return QSymTensor.from_ints(
        den, {(comp[:k], comp[k:]): n for comp, n in nums for k in range(len(comp) + 1)}
    )


def compositions(n: int) -> tuple[Composition, ...]:
    """All compositions of n, in lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # Those of m are (p,) + c, first part p ascending, c a composition of
    # m - p in lexicographic order; built by weight, with no recursion.
    by_weight: list[tuple[Composition, ...]] = [((),)]
    for m in range(1, n + 1):
        by_weight.append(tuple([(p,) + c for p in range(1, m + 1) for c in by_weight[m - p]]))
    return by_weight[n]


def duality_pairing(a: NSymElem, q: QSymElem) -> Fraction:
    """Graded pairing with products of complete functions dual to monomials."""
    (da, xs), (dq, ys) = to_complete_basis(a).ints, q.ints
    ys = dict(ys)
    return Fraction(sum([n * ys.get(w, 0) for w, n in xs]), da * dq)


# ---------------------------------------------------------------------------
# Rendering and the series interface
# ---------------------------------------------------------------------------

def text(a: NSymElem) -> str:
    return format_linear(
        [(c, "" if not w else "L[" + " ".join(map(str, w)) + "]") for w, c in a.sorted_terms()]
    )


def qsym_text(a: QSymElem) -> str:
    return format_linear(
        [(c, "" if not w else "M[" + ",".join(map(str, w)) + "]") for w, c in a.sorted_terms()]
    )


# The lambda reads dot at call time, so a tracer that rebinds nsym.dot
# sees the series products.
SERIES_OPS = LinCombOps(NSymElem(), unit(), lambda pairs: dot(pairs), text)
