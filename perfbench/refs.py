"""Reference values computed without treehopf, for checking its outputs.

Nothing here imports the package under test.  Each function restates a
closed form or a classical recurrence:

* labeled tree and forest counts by the weighted Euler transform, where a
  vertex labeled l weighs l (with labels {1} these are A000081);
* Bernoulli numbers from sum_{j<=m} C(m+1, j) B_j = 0, so B_1 = -1/2;
* compositions of a weight into parts from the label set, which index the
  chains;
* the order polynomials of chains and antichains;
* how many checks each verification report must make, counted from the
  loops the reports run over.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def tree_forest_counts(labels, max_weight: int) -> tuple[list[int], list[int]]:
    """(trees, forests): counts by total weight 0..max_weight.

    A tree of weight n is a root labeled l <= n over a forest of weight
    n - l; forests are multisets of trees, so their generating function is
    prod_n (1 - x^n)^(-trees[n]), expanded by n f_n = sum_k c_k f_{n-k} with
    c_k = sum_{d | k} d trees[d].
    """
    ls = sorted(set(labels))
    trees = [0] * (max_weight + 1)
    forests = [1] + [0] * max_weight
    c = [0] * (max_weight + 1)
    for n in range(1, max_weight + 1):
        trees[n] = sum(forests[n - l] for l in ls if l <= n)
        c[n] = sum(d * trees[d] for d in range(1, n + 1) if n % d == 0)
        total = sum(c[k] * forests[n - k] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError("Euler transform left a fraction")
        forests[n] = total // n
    return trees, forests


def bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b[m]


def compositions(labels, weight: int) -> tuple[int, int]:
    """(number, sum of last parts) over compositions of weight into labels.

    A chain of weight w read from the root down is such a composition, and
    its leaf label is the last part.
    """
    ls = sorted(set(labels))
    count = [1] + [0] * weight
    for w in range(1, weight + 1):
        count[w] = sum(count[w - l] for l in ls if l <= w)
    last = sum(l * count[weight - l] for l in ls if l <= weight) if weight else 0
    return count[weight], last


def chain_order_poly(n: int, s: int, strict: bool) -> int:
    """Maps of an n-chain into {1..s} that keep (strict: raise) the order."""
    return comb(s, n) if strict else comb(s + n - 1, n)


def antichain_order_poly(n: int, s: int) -> int:
    return s**n


def adjunction_checks(labels, max_weight: int) -> int:
    """Checks made by duality.check_hopf_adjunction.

    Grafting basis trees of weight w are indexed by their branch forests, so
    every loop runs over forest counts: product/coproduct pairs (x, y, F),
    coproduct/product triples (x, F, G), and antipode pairs (x, F).
    """
    _, f = tree_forest_counts(labels, max_weight)
    w_max = max_weight
    product = sum(
        f[wx] * f[wy] * f[wx + wy] for wx in range(w_max + 1) for wy in range(w_max + 1 - wx)
    )
    coproduct = sum(
        f[wx] * sum(f[wf] * f[wx - wf] for wf in range(wx + 1)) for wx in range(w_max + 1)
    )
    antipode = sum(f[wx] ** 2 for wx in range(w_max + 1))
    return product + coproduct + antipode


def theta_checks(max_vertices: int) -> int:
    """One check per grafting-rooted tree over labels {1} of weight 1..max_vertices."""
    _, f = tree_forest_counts((1,), max_vertices)
    return sum(f[1:])


def orderpoly_checks(max_vertices: int) -> int:
    """Five checks per forest, one more per forest of several trees, two per tree."""
    t, f = tree_forest_counts((1,), max_vertices)
    return sum(5 * f[n] + (f[n] - t[n]) + 2 * t[n] for n in range(1, max_vertices + 1))


def specialization_checks(order: int) -> int:
    """f, g and d are known to degree order, h and m to degree order - 1."""
    return 3 * (order + 1) + 2 * order


def hopf_morphism_checks(labels, order: int) -> int:
    """Generator images and g coefficients (one each per degree 1..order),
    then each nonzero h, d and m coefficient.  Every weight that has a tree
    has a chain, whose h, d and m coefficients are nonzero."""
    occupied = sum(1 for w in range(1, order + 1) if compositions(labels, w)[0])
    return 2 * order + 3 * occupied
