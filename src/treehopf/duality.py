"""The graded pairing between the grafting and forest Hopf algebras.

On basis elements the pairing of a grafting-rooted tree T with a forest F is
the automorphism count of T when F is the branch forest of T, and zero
otherwise; in the divided basis it is simply the indicator, which makes the
pairing a key-level operation.  The adjunction checker verifies that product,
coproduct and antipode on the two sides are transposes of one another, and
the dual-map constructor turns a linear map into quasi-symmetric images of
forests through the complete/monomial duality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import ck, gl, nsym
from .report import CheckReport
from .trees import (
    Forest,
    LabeledTree,
    automorphism_count,
    branch_forest,
    enumerate_bplus_trees,
    enumerate_forests,
    forest_text,
    tree_text,
    _require_grafting_root,
)


def pair_tree_forest(t: LabeledTree, f: Forest) -> int:
    """Pairing of a basis grafting-rooted tree with a basis forest."""
    _require_grafting_root(t)
    return automorphism_count(t) if branch_forest(t) == f else 0


def pair(a: gl.GLElem, b: ck.CKElem) -> Fraction:
    """Bilinear extension; zero across different weights by construction."""
    total = Fraction(0)
    for f, c in a.terms.items():
        cb = b.get(f)
        if cb:
            weight_factor = 1 if a.basis == gl.V_BASIS else gl.alpha(f)
            total += c * cb * weight_factor
    return total


def pair_tensor(a: gl.GLTensor, b: ck.CKTensor) -> Fraction:
    total = Fraction(0)
    for (fa1, fa2), ca in a.terms.items():
        cb = b.terms.get((fa1, fa2))
        if cb:
            factor = 1 if a.basis == gl.V_BASIS else gl.alpha(fa1) * gl.alpha(fa2)
            total += ca * cb * factor
    return total


def check_hopf_adjunction(labels, max_weight: int) -> CheckReport:
    """Verify the three transpose identities on all basis pairs up to a weight.

    For grafting-basis trees x, y and forests F, G:
      <x*y, F> = <x (x) y, coproduct(F)>,
      <coproduct(x), F (x) G> = <x, F*G>,
      <antipode(x), F> = <x, antipode(F)>.
    """
    report = CheckReport()
    ls = tuple(labels)

    trees_by_weight = {m: enumerate_bplus_trees(ls, m) for m in range(max_weight + 1)}
    forests_by_weight = {m: enumerate_forests(ls, m) for m in range(max_weight + 1)}
    coproducts = {
        f: ck.coproduct(ck.from_forest(f)) for fs in forests_by_weight.values() for f in fs
    }

    for wx in range(max_weight + 1):
        for wy in range(max_weight + 1 - wx):
            wf = wx + wy
            for x in trees_by_weight[wx]:
                ex = gl.from_bplus_tree(x, gl.T_BASIS)
                for y in trees_by_weight[wy]:
                    ey = gl.from_bplus_tree(y, gl.T_BASIS)
                    prod = gl.mul(ex, ey)
                    exy = gl.tensor_of(ex, ey)
                    for f in forests_by_weight[wf]:
                        lhs = pair(prod, ck.from_forest(f))
                        rhs = pair_tensor(exy, coproducts[f])
                        report.checked += 1
                        if lhs != rhs:
                            report.failures.append(
                                f"product/coproduct: x={tree_text(x)} y={tree_text(y)} "
                                f"F={forest_text(f)}: {lhs} != {rhs}"
                            )

    for wx in range(max_weight + 1):
        for x in trees_by_weight[wx]:
            ex = gl.from_bplus_tree(x, gl.T_BASIS)
            dx = gl.coproduct(ex)
            for wf in range(wx + 1):
                for f in forests_by_weight[wf]:
                    for g in forests_by_weight[wx - wf]:
                        lhs = pair_tensor(dx, ck.CKTensor({(f, g): 1}))
                        rhs = pair(ex, ck.mul(ck.from_forest(f), ck.from_forest(g)))
                        report.checked += 1
                        if lhs != rhs:
                            report.failures.append(
                                f"coproduct/product: x={tree_text(x)} F={forest_text(f)} "
                                f"G={forest_text(g)}: {lhs} != {rhs}"
                            )

    for wx in range(max_weight + 1):
        for x in trees_by_weight[wx]:
            ex = gl.from_bplus_tree(x, gl.T_BASIS)
            sx = gl.antipode(ex)
            for f in forests_by_weight[wx]:
                lhs = pair(sx, ck.from_forest(f))
                rhs = pair(ex, ck.antipode(ck.from_forest(f)))
                report.checked += 1
                if lhs != rhs:
                    report.failures.append(
                        f"antipode: x={tree_text(x)} F={forest_text(f)}: {lhs} != {rhs}"
                    )

    return report


def pairing_matrix(labels, weight: int) -> list[list[Fraction]]:
    """Matrix of the divided basis against forests of one weight, both sorted."""
    trees = enumerate_bplus_trees(labels, weight)
    forests = enumerate_forests(labels, weight)
    return [
        [pair(gl.from_bplus_tree(t, gl.V_BASIS), ck.from_forest(f)) for f in forests]
        for t in trees
    ]


def dual_image(linmap: Callable[[nsym.NSymElem], gl.GLElem], f: Forest) -> nsym.QSymElem:
    """Quasi-symmetric image of a forest under the transpose of a linear map.

    Expands over all compositions of the forest weight, pairing the image of
    the corresponding product of complete functions with the forest.
    """
    return nsym.QSymElem(
        (comp, pair(linmap(nsym.complete_word(comp)), ck.from_forest(f)))
        for comp in nsym.compositions(f.weight)
    )
