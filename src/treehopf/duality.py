"""The graded pairing between the grafting and forest Hopf algebras.

On basis elements the pairing of a grafting-rooted tree T with a forest F is
the automorphism count of T when F is the branch forest of T, and zero
otherwise; in the divided basis it is simply the indicator, which makes the
pairing a key-level operation.  The adjunction checker verifies, in the
divided basis, that product, coproduct and antipode on the two sides are
transposes of one another by comparing rows against the transposed tables.
"""

from __future__ import annotations

from fractions import Fraction

from . import ck, gl, memo
from .report import CheckReport
from .trees import (
    bplus,
    enumerate_forests,
    forest_text,
    forest_union,
    tree_text,
)


def pair(a: gl.GLElem, b: ck.CKElem) -> Fraction:
    """Bilinear extension; zero across different weights by construction."""
    (da, xs), (db, ys) = a.ints, b.ints
    ys = dict(ys)
    w = (lambda f: 1) if a.basis == gl.V_BASIS else gl.alpha
    return Fraction(sum([n * ys[f] * w(f) for f, n in xs if f in ys]), da * db)


def pair_tensor(a: gl.GLTensor, b: ck.CKTensor) -> Fraction:
    (da, xs), (db, ys) = a.ints, b.ints
    ys = dict(ys)
    w = (lambda f: 1) if a.basis == gl.V_BASIS else gl.alpha
    return Fraction(sum([n * ys[fg] * w(fg[0]) * w(fg[1]) for fg, n in xs if fg in ys]), da * db)


def _compare_rows(report: CheckReport, keys, image, rhs: dict, describe) -> None:
    # One check per key.  Both rows hold nonzero values only, so equal dicts
    # mean every key agrees; a mismatch walks the keys in order and lists
    # each disagreeing key (a row entry outside the keys is not checked).
    den, nums = image.ints
    lhs = dict(nums) if den == 1 else {k: Fraction(n, den) for k, n in nums}
    report.checked += len(keys)
    if lhs == rhs:
        return
    for k in keys:
        left, right = lhs.get(k, 0), rhs.get(k, 0)
        if left != right:
            report.failures.append(f"{describe(k)}: {left} != {right}")


def _transpose(images) -> dict:
    # Integer forms {source: (den, ((result, n), ...))} as {result: {source:
    # coefficient}}.  CK coproducts, unions and antipodes of a basis forest
    # have den 1, so the entries are ints.
    table: dict = {}
    for source, (den, nums) in images:
        for key, n in nums:
            table.setdefault(key, {})[source] = n if den == 1 else Fraction(n, den)
    return table


@memo.collector_paused
def check_hopf_adjunction(labels, max_weight: int) -> CheckReport:
    """Verify the three transpose identities on all basis pairs up to a weight.

    For divided-basis trees x, y and forests F, G:
      <x*y, F> = <x (x) y, coproduct(F)>,
      <coproduct(x), F (x) G> = <x, F*G>,
      <antipode(x), F> = <x, antipode(F)>.

    In V the pairing is the identity on branch forests, so every GL row is
    compared as it stands with a row of a forest-side table: each CK
    coproduct, product and antipode, computed once and keyed by its result.
    One check is counted per (x, y, F), (x, F, G) and (x, F), as the
    pairings would be.
    """
    report = CheckReport()
    ls = tuple(labels)
    weights = range(max_weight + 1)

    forests_by_weight = {m: enumerate_forests(ls, m) for m in weights}
    forests = [f for m in weights for f in forests_by_weight[m]]
    pairs_by_weight = {
        m: [
            (f, g)
            for wf in range(m + 1)
            for f in forests_by_weight[wf]
            for g in forests_by_weight[m - wf]
        ]
        for m in weights
    }
    elems = {x: gl.from_branches(x) for x in forests}

    by_split = _transpose((f, ck.coproduct(ck.from_forest(f)).ints) for f in forests)
    by_union = _transpose(
        (fg, (1, ((forest_union(*fg), 1),))) for m in weights for fg in pairs_by_weight[m]
    )
    by_image = _transpose((f, ck.antipode(ck.from_forest(f)).ints) for f in forests)

    for wx in weights:
        for wy in range(max_weight + 1 - wx):
            for x in forests_by_weight[wx]:
                for y in forests_by_weight[wy]:
                    _compare_rows(
                        report,
                        forests_by_weight[wx + wy],
                        gl.mul(elems[x], elems[y]),
                        by_split.get((x, y), {}),
                        lambda f: f"product/coproduct: x={tree_text(bplus(x))} "
                        f"y={tree_text(bplus(y))} F={forest_text(f)}",
                    )

    for x in forests:
        _compare_rows(
            report,
            pairs_by_weight[x.weight],
            gl.coproduct(elems[x]),
            by_union.get(x, {}),
            lambda fg: f"coproduct/product: x={tree_text(bplus(x))} F={forest_text(fg[0])} "
            f"G={forest_text(fg[1])}",
        )

    for x in forests:
        _compare_rows(
            report,
            forests_by_weight[x.weight],
            gl.antipode(elems[x]),
            by_image.get(x, {}),
            lambda f: f"antipode: x={tree_text(bplus(x))} F={forest_text(f)}",
        )

    return report
