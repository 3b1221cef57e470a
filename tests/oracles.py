"""Oracles that only the tests call: each restates a definition of the paper
on basis elements, so the tests can check the package against it."""

from fractions import Fraction

from treehopf import ck, duality, gl
from treehopf.trees import (
    Forest,
    LabeledTree,
    _require_grafting_root,
    automorphism_count,
    branch_forest,
    enumerate_bplus_trees,
    enumerate_forests,
)


def pair_tree_forest(t: LabeledTree, f: Forest) -> int:
    """Pairing of a basis grafting-rooted tree with a basis forest."""
    _require_grafting_root(t)
    return automorphism_count(t) if branch_forest(t) == f else 0


def pairing_matrix(labels, weight: int) -> list[list[Fraction]]:
    """Matrix of the divided basis against forests of one weight, both sorted."""
    trees = enumerate_bplus_trees(labels, weight)
    forests = enumerate_forests(labels, weight)
    return [
        [duality.pair(gl.from_bplus_tree(t, gl.V_BASIS), ck.from_forest(f)) for f in forests]
        for t in trees
    ]
