"""Tree core: canonical forms, enumeration, automorphisms, cuts, grafting."""

import functools
import itertools
import math
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given

from conftest import build_tree, canonical_trees, raw_trees
from oracles import nested_cut_sequences
from treehopf import gl, ncs, trees
from treehopf.orderpoly import order_poly, strict_order_poly
from treehopf.trees import (
    EMPTY_FOREST,
    automorphism_count,
    bplus,
    branch_forest,
    cut_results,
    enumerate_bplus_trees,
    enumerate_forests,
    enumerate_trees,
    forest,
    forest_automorphisms,
    forest_text,
    graft_positions,
    leaf,
    node,
    parse_forest,
    parse_tree,
    tree_text,
)

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def grow_all_shapes(max_vertices):
    """All unlabeled rooted trees by leaf attachment, independent of the
    weight-composition enumerator: n+1-vertex trees arise by hanging a new
    leaf below each vertex of each n-vertex tree, deduplicated canonically."""
    levels = {1: {leaf(1)}}
    for n in range(1, max_vertices):
        nxt = set()
        for t in levels[n]:
            for v in range(t.size):
                nxt.add(_attach_leaf(t, v))
        levels[n + 1] = nxt
    return levels


def _attach_leaf(t, target, counter=None):
    if counter is None:
        counter = itertools.count()
    v = next(counter)
    kids = [_attach_leaf(c, target, counter) for c in t.children]
    if v == target:
        kids.append(leaf(1))
    return node(t.label, kids)


def edges_of(t):
    """Edges as (parent_preorder, child_preorder) pairs."""
    out = []
    counter = itertools.count()

    def walk(u, parent):
        v = next(counter)
        if parent is not None:
            out.append((parent, v))
        for c in u.children:
            walk(c, v)

    walk(t, None)
    return out


def root_leaf_paths(t):
    """Vertex index sets of all root-to-leaf paths."""
    paths = []
    counter = itertools.count()

    def walk(u, above):
        v = next(counter)
        here = above + [v]
        if not u.children:
            paths.append(set(here))
        for c in u.children:
            walk(c, here)

    walk(t, [])
    return paths


def brute_force_cuts(t):
    """All admissible edge subsets by filtering the full power set."""
    edge_list = edges_of(t)
    paths = root_leaf_paths(t)
    cuts = []
    for r in range(len(edge_list) + 1):
        for subset in itertools.combinations(edge_list, r):
            children = [child for _, child in subset]
            ok = all(sum(1 for c in children if c in path) <= 1 for path in paths)
            if ok:
                cuts.append(frozenset(children))
    return set(cuts)


def kept_subtree(t, top, removed):
    """The subtree at preorder vertex top with the subtrees at removed deleted."""
    found = []
    counter = itertools.count()

    def walk(u):
        v = next(counter)
        built = node(u.label, [k for k in map(walk, u.children) if k is not None])
        if v == top:
            found.append(built)
        return None if v in removed else built

    walk(t)
    return found[0]


def brute_force_cut_pairs(t):
    """Counter of (pruned forest, trunk) over the admissible edge subsets."""
    return Counter(
        (forest(kept_subtree(t, v, ()) for v in cut), kept_subtree(t, 0, cut))
        for cut in brute_force_cuts(t)
    )


def brute_force_automorphisms(t):
    """Count vertex bijections preserving the root, adjacency and labels."""
    n = t.size
    labels = [None] * n
    parent = [None] * n
    counter = itertools.count()

    def walk(u, par):
        v = next(counter)
        labels[v] = u.label
        parent[v] = par
        for c in u.children:
            walk(c, v)

    walk(t, -1)
    count = 0
    for perm in itertools.permutations(range(n)):
        if perm[0] != 0:
            continue
        if any(labels[perm[v]] != labels[v] for v in range(n)):
            continue
        if any(parent[perm[v]] != perm[parent[v]] for v in range(1, n)):
            continue
        count += 1
    return count


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def test_singleton_is_fixed_point():
    t = leaf(1)
    assert node(t.label, t.children) is t
    assert tree_text(t) == "1"


def test_child_order_is_irrelevant():
    assert node(1, (leaf(2), leaf(1))) is node(1, (leaf(1), leaf(2)))


def test_five_vertex_tree_all_parse_orders_identical():
    # 1(2, 1(3, 1)): permute children at every level by brute force.
    variants = set()
    for inner in itertools.permutations([leaf(3), leaf(1)]):
        for top in itertools.permutations([leaf(2), node(1, inner)]):
            variants.add(node(1, top))
    assert len(variants) == 1
    assert tree_text(variants.pop()) == "1(1(1,3),2)"


def _reversed_children(raw):
    label, kids = raw
    return (label, [_reversed_children(k) for k in reversed(kids)])


@given(raw_trees())
def test_node_is_idempotent_and_ignores_child_order(raw):
    t = build_tree(raw)
    assert node(t.label, t.children) is t
    # Equal trees and forests built apart are one object.
    assert build_tree(_reversed_children(raw)) is t
    ts = [build_tree(k) for k in raw[1]]
    assert forest(ts) is forest(reversed(ts))


@given(canonical_trees())
def test_serialize_parse_round_trip(t):
    assert parse_tree(tree_text(t)) is t


def test_parse_rejects_zero_off_root():
    with pytest.raises(ValueError):
        parse_tree("1(0)")
    with pytest.raises(ValueError):
        parse_tree("1(")
    assert parse_forest("[]") is EMPTY_FOREST


def _nested_text(depth: int) -> str:
    return "0" + "(1" * depth + ")" * depth


def test_parse_accepts_nesting_up_to_the_bound():
    text = _nested_text(trees.MAX_PARSE_DEPTH)
    t = parse_tree(text)
    assert t.size == trees.MAX_PARSE_DEPTH + 1
    assert tree_text(t) == text
    assert parse_forest(f"[{text},1]").size == trees.MAX_PARSE_DEPTH + 2


@pytest.mark.parametrize("depth", [trees.MAX_PARSE_DEPTH + 1, 3000])
def test_parse_refuses_deeper_nesting_without_recursing(depth):
    with pytest.raises(ValueError, match="nested deeper than"):
        parse_tree(_nested_text(depth))
    with pytest.raises(ValueError, match="nested deeper than"):
        parse_forest(f"[1,{_nested_text(depth)}]")


def test_weight_ignores_grafting_root():
    assert parse_tree("0(1(1))").weight == 2
    assert parse_tree("2(1)").weight == 3
    assert parse_forest("[1(1),2]").weight == 4


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

def test_automorphism_examples():
    assert automorphism_count(leaf(1)) == 1
    assert automorphism_count(parse_tree("0(1,1)")) == 2
    assert automorphism_count(parse_tree("1(1(1))")) == 1


def test_automorphisms_against_brute_force():
    for m in range(1, 6):
        for t in enumerate_trees((1, 2), m):
            assert automorphism_count(t) == brute_force_automorphisms(t), tree_text(t)
    for m in range(0, 5):
        for t in enumerate_bplus_trees((1,), m):
            assert automorphism_count(t) == brute_force_automorphisms(t), tree_text(t)



def test_forest_automorphisms_against_bplus_and_brute_force(clear_memo_tables):
    # The run-length product over equal neighbouring trees, on every forest
    # over (1, 2) up to weight 6, with the tree counts computed afresh.
    clear_memo_tables()
    checked = 0
    for m in range(0, 7):
        for f in enumerate_forests((1, 2), m):
            t = bplus(f)
            assert forest_automorphisms(f) == automorphism_count(t), forest_text(f)
            assert automorphism_count(t) == brute_force_automorphisms(t), forest_text(f)
            checked += 1
    assert checked == 1 + 1 + 3 + 7 + 20 + 55 + 164


@pytest.mark.parametrize(
    "text, count",
    [("[1,1,1,1]", 24), ("[1(1),1(1),1(1)]", 6), ("[1(1,1),1(1,1)]", 8), ("[1,2,1(1),1(1)]", 2)],
)
def test_forest_automorphisms_of_repeated_trees(text, count):
    # m equal trees with a automorphisms each give m! * a**m.
    f = parse_forest(text)
    assert forest_automorphisms(f) == automorphism_count(bplus(f)) == count
    assert brute_force_automorphisms(bplus(f)) == count


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_unlabeled_tree_counts_match_independent_generator():
    levels = grow_all_shapes(7)
    for m in range(1, 8):
        ours = enumerate_trees((1,), m)
        assert len(ours) == len(levels[m])
        assert set(ours) == levels[m]


def test_forest_counts_shift_tree_counts():
    # forests with k vertices match trees with k+1 vertices
    for k in range(0, 6):
        assert len(enumerate_forests((1,), k)) == len(enumerate_trees((1,), k + 1))


def test_two_label_weight_three_has_seven_grafting_trees():
    assert len(enumerate_bplus_trees((1, 2), 3)) == 7


def test_weight_zero_conventions():
    assert enumerate_forests((1, 2), 0) == (EMPTY_FOREST,)
    assert enumerate_bplus_trees((1, 2), 0) == (bplus(EMPTY_FOREST),)
    assert enumerate_trees((1, 2), 0) == ()


def test_enumeration_is_duplicate_free_and_graded():
    for m in range(0, 6):
        forests = enumerate_forests((1, 2), m)
        assert len(set(forests)) == len(forests)
        assert all(f.weight == m for f in forests)



def euler_transform_counts(labels, max_weight):
    """Tree and forest counts by weight, independent of the enumeration.

    A tree of weight n is a root label l over a forest of weight n - l, and
    forests are multisets of trees, so F(x) = prod over n of (1 - x^n)^(-t_n):
    n f_n = sum over k of c_k f_(n-k), with c_k = sum over d | k of d t_d.
    """
    t = [0] * (max_weight + 1)
    f = [1] + [0] * max_weight
    for n in range(1, max_weight + 1):
        t[n] = sum(f[n - lab] for lab in labels if lab <= n)
        c = [sum(d * t[d] for d in range(1, k + 1) if k % d == 0) for k in range(n + 1)]
        f[n] = sum(c[k] * f[n - k] for k in range(1, n + 1)) // n
    return t, f


@pytest.mark.parametrize("labels", [(1,), (1, 2), (2, 3, 4)])
def test_public_enumeration_is_sorted_complete_and_duplicate_free(labels):
    # The inner bounded lists are left unsorted; every list a caller sees is
    # in canonical order, holds each tree or forest once, and has the size
    # the weighted Euler transform gives.
    tree_counts, forest_counts = euler_transform_counts(labels, 8)
    for m in range(0, 9):
        for items, count in [
            (enumerate_trees(labels, m), tree_counts[m]),
            (enumerate_forests(labels, m), forest_counts[m]),
            (enumerate_bplus_trees(labels, m), forest_counts[m]),
        ]:
            keys = [x._key for x in items]
            assert keys == sorted(keys)
            assert len(set(items)) == len(items) == count
    # Over (1,), forests of weight 8 are the rooted trees on 9 vertices (OEIS A000081).
    assert forest_counts[8] == {(1,): 286, (1, 2): 1510, (2, 3, 4): 29}[labels]


# ---------------------------------------------------------------------------
# Cuts
# ---------------------------------------------------------------------------

def test_cut_examples():
    # The empty cut comes first; the counts sum to the number of edge sets.
    chain3 = parse_tree("1(1(1))")
    cherry = parse_tree("0(1,1)")
    for t, total in ((leaf(1), 1), (chain3, 3), (cherry, 4)):
        cuts = cut_results(t)
        assert cuts[0] == (EMPTY_FOREST, t, 1)
        assert sum(n for _, _, n in cuts) == total
    # Cutting either leaf of the cherry gives one pair, counted twice.
    assert {(forest_text(p), tree_text(tr)): n for p, tr, n in cut_results(cherry)} == {
        ("[]", "0(1,1)"): 1,
        ("[1]", "0(1)"): 2,
        ("[1,1]", "0"): 1,
    }


def test_cuts_match_brute_force():
    for m in range(1, 6):
        for t in enumerate_trees((1, 2), m):
            cuts = cut_results(t)
            ours = Counter({(p, tr): n for p, tr, n in cuts})
            assert len(ours) == len(cuts), tree_text(t)
            assert ours == brute_force_cut_pairs(t), tree_text(t)


def test_apply_cut_splits_vertices():
    for m in range(1, 6):
        for t in enumerate_trees((1,), m):
            for pruned, trunk, n in cut_results(t):
                assert pruned.size + trunk.size == t.size
                assert pruned.weight + trunk.weight == t.weight
                assert n >= 1


def test_apply_cut_examples():
    chain3 = parse_tree("1(1(1))")
    pairs = {(forest_text(p), tree_text(tr)): n for p, tr, n in cut_results(chain3)}
    assert pairs[("[1]", "1(1)")] == 1  # the edge above the leaf
    assert pairs[("[1(1)]", "1")] == 1  # the edge above the middle vertex


# ---------------------------------------------------------------------------
# Nested cut sequences
# ---------------------------------------------------------------------------

def test_nested_sequences_r1_is_identity():
    for t in enumerate_trees((1,), 4):
        seqs = nested_cut_sequences(t, 1)
        assert seqs == [((t,), 1)]


def test_nested_sequences_three_chain():
    chain3 = parse_tree("1(1(1))")
    two = nested_cut_sequences(chain3, 2, single_edges=True)
    assert sum(n for _, n in two) == 2
    three = nested_cut_sequences(chain3, 3, single_edges=True)
    assert len(three) == 1
    pieces, n = three[0]
    # one order only: the deep edge must be cut before the root edge
    assert n == 1
    assert [tree_text(p) for p in pieces] == ["0(1)", "0(1)", "1"]


def test_nested_single_edge_sequences_match_pairwise_filter():
    # Oracle: tuples of distinct single edges, keeping those where each later
    # edge survives on the trunk left by each earlier one; each cut removes
    # its subtree less what the earlier cuts removed.
    for t in enumerate_trees((1,), 4):
        n_edges = t.size - 1
        for r in (2, 3, 4):
            got = Counter(dict(nested_cut_sequences(t, r, single_edges=True)))
            expected = Counter()
            for tup in itertools.permutations(range(1, n_edges + 1), r - 1):
                ok = True
                for i in range(len(tup)):
                    trunk_alive = _surviving_edges(t, tup[i])
                    if any(tup[j] not in trunk_alive for j in range(i + 1, len(tup))):
                        ok = False
                        break
                if ok:
                    pieces = tuple(
                        node(0, (kept_subtree(t, v, tup[:i]),)) for i, v in enumerate(tup)
                    )
                    expected[pieces + (kept_subtree(t, 0, tup),)] += 1
            assert got == expected, tree_text(t)


def _surviving_edges(t, cut_vertex):
    # edges_of lists each parent before its children.
    dead = {cut_vertex}
    for parent, child in edges_of(t):
        if parent in dead:
            dead.add(child)
    return {v for v in range(1, t.size) if v not in dead}


@functools.cache
def _theta_of_branch(x):
    return ncs.theta_recurrence(node(0, (x,)))


@functools.cache
def _theta_of_trunk(r):
    return ncs.theta_recurrence(node(0, r.children))


@functools.cache
def _strict_constant(t):
    return strict_order_poly(forest((t,))).linear_coeff


@functools.cache
def _weak_constant(t):
    return order_poly(forest((t,))).linear_coeff


@functools.cache
def _probe(t):
    # label-sensitive and never zero, so every sequence counts
    return Fraction(t.weight + 2, 3 * t.size + 1)


def nested_cut_sum(t, k, piece, trunk):
    # S_k(t) read from nested_cut_sums: S_0(t) is trunk(t), and S_k(t) is 0
    # once k reaches t's vertex count.
    if k == 0:
        return trunk(t)
    den, nums = trees.nested_cut_sums(t, k, piece, trunk)
    return Fraction(nums[k - 1], den) if k < t.size else Fraction(0)


def test_nested_cut_sum_matches_sequence_enumeration():
    # Oracle: list every sequence and multiply the constants of its pieces.
    # The pruned pieces come re-rooted under 0; the sum takes the bare subtree.
    shape_constants = [
        (_theta_of_branch, _theta_of_trunk),
        (_strict_constant, _strict_constant),
        (_weak_constant, _weak_constant),
    ]
    cases = [(t, shape_constants) for w in range(1, 8) for t in enumerate_trees((1,), w)]
    cases += [(t, [(_probe, _probe)]) for w in range(1, 6) for t in enumerate_trees((1, 2), w)]
    for t, constants in cases:
        for k in range(t.size):
            seqs = nested_cut_sequences(t, k + 1, single_edges=True)
            for piece, trunk in constants:
                expected = Fraction(0)
                for pieces, n in seqs:
                    prod = n * trunk(pieces[-1])
                    for p in pieces[:-1]:
                        if not prod:
                            break
                        prod *= piece(p.children[0])
                    expected += prod
                assert nested_cut_sum(t, k, piece, trunk) == expected, (tree_text(t), k, piece)


def _vanishing_piece(x):
    # label-sensitive, and zero on subtrees whose root carries label 2
    return Fraction(x.label - 2, x.size)


def _vanishing_trunk(r):
    # label-sensitive, and zero on trunks whose weight is a multiple of 3
    return Fraction(r.weight % 3, r.size + 1)


def _per_k_sum(t, k, piece, trunk, table):
    # The recurrence one k at a time in Fractions, one value per (trunk, k).
    key = (t, k)
    if key not in table:
        if k == 0:
            table[key] = trunk(t)
        else:
            total = Fraction(0)
            for (x, rest), copies in trees._single_edge_cuts(t):
                inner = _per_k_sum(rest, k - 1, piece, trunk, table)
                if inner:
                    total += copies * piece(x) * inner
            table[key] = total
    return table[key]


@given(
    canonical_trees(),
    st.sampled_from(
        [
            (_vanishing_piece, _vanishing_trunk),
            (_probe, _vanishing_trunk),
            (_vanishing_piece, _probe),
        ]
    ),
)
def test_nested_cut_sums_match_the_per_k_fraction_recurrence(t, constants):
    piece, trunk = constants
    table = {}
    den, nums = trees.nested_cut_sums(t, t.size - 1, piece, trunk)
    assert den > 0 and len(nums) == t.size - 1
    assert math.gcd(den, *nums) == 1
    for k in range(t.size + 2):
        expected = _per_k_sum(t, k, piece, trunk, table)
        assert nested_cut_sum(t, k, piece, trunk) == expected, (tree_text(t), k)
        if 1 <= k < t.size:
            assert Fraction(nums[k - 1], den) == expected, (tree_text(t), k)
        # A shorter request is a prefix of the full vector.
        d, short = trees.nested_cut_sums(t, k, piece, trunk)
        assert [Fraction(n, d) for n in short] == [Fraction(n, den) for n in nums[:k]]


def test_theta_fills_one_full_length_kernel_entry_per_trunk():
    ncs._theta_of_shape.table.clear()
    trees._nested_cut_sums.table.clear()
    for w in range(1, 9):
        for t in enumerate_bplus_trees((1,), w):
            ncs.theta_recurrence(t)
    keys = [key for key in trees._nested_cut_sums.table if key[2] is ncs._theta_of_branch]
    assert keys
    assert all(key[3] is ncs._theta_of_shape for key in keys)
    assert all(k == t.size - 1 for t, k, _, _ in keys)
    assert len({t for t, _, _, _ in keys}) == len(keys)


def test_general_nested_sequences_extend_cut_results():
    # r=2 general sequences correspond exactly to the admissible cuts.
    for t in enumerate_bplus_trees((1,), 3):
        seqs = Counter(dict(nested_cut_sequences(t, 2)))
        assert seqs == Counter(
            {(bplus(p), tr): n for (p, tr), n in brute_force_cut_pairs(t).items()}
        )


# ---------------------------------------------------------------------------
# Grafting
# ---------------------------------------------------------------------------

def test_graft_single_scion_single_vertex():
    out = graft_positions(forest([leaf(1)]), bplus(EMPTY_FOREST))
    assert [tree_text(t) for t in out] == ["0(1)"]


def test_graft_single_scion_two_vertices():
    out = graft_positions(forest([leaf(1)]), parse_tree("0(1)"))
    assert sorted(tree_text(t) for t in out) == ["0(1(1))", "0(1,1)"]


def test_graft_two_scions_one_vertex():
    out = graft_positions(forest([leaf(1), leaf(1)]), bplus(EMPTY_FOREST))
    assert [tree_text(t) for t in out] == ["0(1,1)"]


def test_graft_count_is_vertices_to_the_scions():
    scions = forest([leaf(1), leaf(2)])
    stock = parse_tree("0(1,1)")
    assert len(graft_positions(scions, stock)) == stock.size ** 2


def test_graft_requires_grafting_root():
    with pytest.raises(ValueError):
        graft_positions(forest([leaf(1)]), leaf(1))


def graft_counts(scions, stock):
    # The T-basis product bplus(scions) * stock, keyed by result tree.
    den, table = gl.mul(
        gl.from_branches(scions, gl.T_BASIS), gl.from_branches(branch_forest(stock), gl.T_BASIS)
    ).ints
    assert den == 1
    return {bplus(f): n for f, n in table}


@pytest.mark.parametrize("labels, max_weight", [((1,), 8), ((1, 2), 7)])
def test_graft_counts_match_every_assignment(labels, max_weight):
    # Every scion forest and stock of total weight <= max_weight: the product
    # table gives each result tree as often as the v**m assignments do.
    pairs = repeated = 0
    for ws in range(max_weight + 1):
        for scions in enumerate_forests(labels, ws):
            has_repeats = len(set(scions.trees)) < len(scions.trees)
            for wt in range(max_weight + 1 - ws):
                for stock in enumerate_bplus_trees(labels, wt):
                    expected = Counter(graft_positions(scions, stock))
                    assert graft_counts(scions, stock) == dict(expected), (scions, stock)
                    pairs += 1
                    repeated += has_repeats
    assert pairs > 2000 and repeated > 300


def test_graft_counts_group_equal_scions():
    # Four equal leaves on the three vertices of 0(1,1): C(6, 4) = 15
    # placements (not 3**4 = 81), weighted by multinomials summing to 81.
    counts = graft_counts(forest([leaf(1)] * 4), parse_tree("0(1,1)"))
    assert sum(counts.values()) == 81
    assert counts[parse_tree("0(1,1,1,1,1,1)")] == 1
    assert counts[parse_tree("0(1(1,1),1(1,1))")] == 4 * 3 // 2


@st.composite
def graft_cases(draw, max_weight=None):
    # A few scion kinds, each repeated, on a stock whose root has classes of
    # equal children and may hold one deeper tree.  Trees are dropped, from
    # the longer side, until the total weight is at most max_weight, and
    # scions until graft_positions lists at most 2000 assignments.
    small = canonical_trees(labels=(1, 2), max_depth=1, max_children=2)
    scions = [t for t in draw(st.lists(small, max_size=3)) for _ in range(draw(st.integers(1, 3)))]
    kids = [t for t in draw(st.lists(small, max_size=3)) for _ in range(draw(st.integers(1, 3)))]
    kids += draw(st.lists(canonical_trees(labels=(1, 2)), max_size=1))
    while max_weight is not None and sum(t.weight for t in scions + kids) > max_weight:
        (scions if len(scions) > len(kids) else kids).pop()
    stock = node(0, kids)
    while stock.size ** len(scions) > 2000:
        scions.pop()
    return forest(scions), stock


@given(graft_cases())
def test_graft_counts_match_every_assignment_on_random_pairs(case):
    scions, stock = case
    assert graft_counts(scions, stock) == dict(Counter(graft_positions(scions, stock)))


@given(graft_cases(max_weight=8))
def test_product_tables_match_both_oracles_on_random_pairs(case):
    # T against every assignment, and V against the admissible-cut counts of
    # candidate results, which share no code with the insertion recursion.
    scions, stock = case
    right = branch_forest(stock)
    assert graft_counts(scions, stock) == dict(Counter(graft_positions(scions, stock)))
    v_table = gl._product_table(scions, right)
    assert dict(v_table) == dict(gl._structure_table(scions, right))


def test_graft_counts_take_a_chain_past_the_recursion_limit():
    # One result per vertex of the stock, each from one assignment.  The
    # results hold a quadratic number of vertices, so depth 3000 would intern
    # about 4.5 M trees; the kernel's stack safety is shown just past the
    # interpreter's recursion limit.
    depth = sys.getrecursionlimit() + 100
    chain = leaf(1)
    for _ in range(depth - 1):
        chain = node(1, (chain,))
    counts = graft_counts(forest([leaf(2)]), node(0, (chain,)))
    assert len(counts) == depth + 1 and set(counts.values()) == {1}


def test_graft_counts_spread_a_scion_over_1200_equal_leaves():
    start = time.perf_counter()
    counts = graft_counts(forest([leaf(2)]), node(0, [leaf(1)] * 1200))
    elapsed = time.perf_counter() - start
    assert counts == {
        node(0, [leaf(1)] * 1200 + [leaf(2)]): 1,
        node(0, [leaf(1)] * 1199 + [parse_tree("1(2)")]): 1200,
    }
    assert elapsed < 1.0


def test_twelve_equal_scions_graft_in_well_under_a_second():
    # One scion at a time, twelve equal scions pass through every forest that
    # inserting leaves into leaves builds; the cancellation stays cheap at
    # the CLI's weight ceiling.  Cold tables, so the time is the kernel's.
    gl._product_table.table.clear()
    trees.insert_scion.table.clear()
    trees._insert_into_tree.table.clear()
    start = time.perf_counter()
    counts = graft_counts(forest([leaf(1)] * 12), parse_tree("0(1(1),2)"))
    elapsed = time.perf_counter() - start
    assert sum(counts.values()) == 4 ** 12
    assert elapsed < 1.0, elapsed


def test_branch_forest_inverts_bplus():
    for m in range(0, 5):
        for f in enumerate_forests((1, 2), m):
            assert branch_forest(bplus(f)) is f


def test_forest_finds_a_pooled_tuple_in_any_order_and_form():
    for m in range(0, 6):
        for f in enumerate_forests((1, 2), m):
            ts = f.trees
            assert ts == tuple(sorted(ts, key=lambda t: t._key))
            assert trees._FOREST_POOL[ts] is f
            for t in ts:
                assert forest(t.children) is branch_forest(t)
            for given_trees in (ts, ts[::-1], list(ts[::-1]), (t for t in ts[::-1])):
                assert forest(given_trees) is f


def test_forest_sorts_and_interns_a_tuple_not_pooled_yet():
    # Label 97 occurs nowhere else, so no forest of these trees exists yet.
    a, b = leaf(97), node(97, (leaf(97),))
    assert a._key < b._key
    assert (a, b) not in trees._FOREST_POOL and (b, a) not in trees._FOREST_POOL
    f = forest((b, a))
    assert f.trees == (a, b)
    assert (b, a) not in trees._FOREST_POOL
    key = next(k for k in trees._FOREST_POOL if trees._FOREST_POOL[k] is f)
    assert key is f.trees and key == (a, b)
    assert forest((a, b)) is f and forest([b, a]) is f and forest(f.trees) is f
    assert forest_text(f) == "[97,97(97)]"


def test_concurrent_memoized_enumeration_agrees():
    # memo tables are shared; racing readers/writers must see one canonical
    # answer per key
    import sys
    import threading

    results = []
    fresh = []
    start = threading.Barrier(8, timeout=60)

    def work():
        start.wait()
        # Label 97 occurs in no other test, so every level is new to the pool.
        fresh.append(node(97, (leaf(97), node(97, (leaf(98),)))))
        results.append(enumerate_bplus_trees((1, 3), 6))

    threads = [threading.Thread(target=work) for _ in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that interning races
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert all(r == results[0] for r in results)
    first = results[0]
    assert all(a is b for a, b in zip(first, enumerate_bplus_trees((1, 3), 6)))
    assert len(fresh) == 8 and all(t is fresh[0] for t in fresh)


def test_tree_walks_take_a_3000_deep_chain():
    # Built through node, not the depth-limited parser.
    depth = 3000
    chain = leaf(2)
    for _ in range(depth - 1):
        chain = node(2, (chain,))
    assert tree_text(chain) == "2(" * (depth - 1) + "2" + ")" * (depth - 1)
    unlabeled = trees.shape(chain)
    assert trees.is_chain(unlabeled) and unlabeled.size == unlabeled.weight == depth
    assert automorphism_count(chain) == 1
    assert automorphism_count(node(1, (chain, chain, unlabeled))) == 2


def test_label_values_and_cut_enumeration_take_a_3000_deep_chain():
    depth = 3000
    chain = leaf(2)
    for _ in range(depth - 1):
        chain = node(2, (chain,))
    assert trees.label_values(chain) == {2}
    assert trees.label_values(forest((chain, leaf(5)))) == {2, 5}

    def one(t):
        return Fraction(1)

    assert trees.nested_cut_sums(node(0, (chain,)), 1, one, one) == (1, (depth,))
    # The cut lists are quadratic in the depth, so the kernel's stack safety is
    # shown just past the interpreter's recursion limit.
    depth = sys.getrecursionlimit() + 100
    for _ in range(3000 - depth):
        chain = chain.children[0]
    grafted = node(0, (chain,))
    cuts = cut_results(grafted)
    assert len(cuts) == depth + 1 and {n for _, _, n in cuts} == {1}
    assert cuts[0] == (EMPTY_FOREST, grafted, 1)
    assert {len(p) for p, _, _ in cuts[1:]} == {1}
    assert {p.size + tr.size for p, tr, _ in cuts} == {depth + 1}
