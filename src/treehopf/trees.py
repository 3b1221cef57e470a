"""Canonical labeled rooted trees and forests.

Vertices carry positive integer labels (their weights); the artificial root
of a grafting tree carries the reserved label 0 and contributes no weight.
Trees and forests are interned canonical values: children are kept sorted by
a fixed total order, so two isomorphic labeled trees (isomorphism preserving
the root and every label) are literally the same object.  Everything in this
module is pure; the memo tables only ever store values that any racing
computation would agree on.  Walks over a tree (text, shape, automorphisms,
admissible cuts, insertion of a scion) are :func:`memo.bottom_up` functions:
they fill its distinct interned subtrees children first, each memoized, on
an explicit stack; there are no vertex ids.

Serialization grammar (bit-exact, canonical child order)::

    tree   := LABEL | LABEL "(" tree ("," tree)* ")"
    forest := "[" "]" | "[" tree ("," tree)* "]"

so the 3-chain over labels {1} with a grafting root prints as ``0(1(1))``.
"""

from __future__ import annotations

import itertools
import operator
from math import factorial, gcd, lcm
from typing import Iterable, Iterator

from . import memo

GRAFT_ROOT_LABEL = 0

_canonical = operator.attrgetter("_key")  # the sort key of trees and forests
_weight = operator.attrgetter("weight")
_size = operator.attrgetter("size")


class LabeledTree:
    """A labeled rooted tree in canonical form.

    ``children`` is a tuple sorted by the canonical key (label first, then the
    recursive encoding).  Every instance is interned by :func:`node`, so
    isomorphic trees are one object: equality and hashing are identity, and
    the nested key only orders.
    """

    __slots__ = ("label", "children", "weight", "size", "_key")

    def __init__(self, label: int, children: tuple["LabeledTree", ...]):
        self.label = label
        self.children = children
        self.weight = label + sum(map(_weight, children))
        self.size = 1 + sum(map(_size, children))
        self._key = (label, tuple(map(_canonical, children)))

    def __lt__(self, other: "LabeledTree"):
        return self._key < other._key

    def __repr__(self):
        return f"LabeledTree({tree_text(self)!r})"


_TREE_POOL = memo.table()


def node(label: int, children: Iterable[LabeledTree] = ()) -> LabeledTree:
    """Intern the canonical tree with the given root label and child multiset."""
    kids = tuple(sorted(children, key=_canonical))
    key = (label, kids)
    got = _TREE_POOL.get(key)
    if got is not None:
        return got
    return _TREE_POOL.setdefault(key, LabeledTree(label, kids))


def leaf(label: int) -> LabeledTree:
    return node(label)


class Forest:
    """A finite multiset of labeled rooted trees; the empty forest is the unit.

    Every instance is interned by :func:`forest`, so equality and hashing
    are identity, as for trees.
    """

    __slots__ = ("trees", "weight", "size", "_key", "_alpha")

    def __init__(self, trees: tuple[LabeledTree, ...]):
        self.trees = trees
        self.weight = sum(map(_weight, trees))
        self.size = sum(map(_size, trees))
        self._key = tuple(map(_canonical, trees))
        self._alpha: int | None = None

    def __lt__(self, other: "Forest"):
        return self._key < other._key

    def __len__(self):
        return len(self.trees)

    def __iter__(self) -> Iterator[LabeledTree]:
        return iter(self.trees)

    def __repr__(self):
        return f"Forest({forest_text(self)!r})"


_FOREST_POOL = memo.table()


def forest(trees: Iterable[LabeledTree] = ()) -> Forest:
    """Intern the canonical forest with the given tree multiset."""
    # A pool key is a sorted tuple of interned trees, which compare by
    # identity, so a tuple equal to a key is that key and needs no sort.
    if type(trees) is tuple and (got := _FOREST_POOL.get(trees)) is not None:
        return got
    ts = tuple(sorted(trees, key=_canonical))
    got = _FOREST_POOL.get(ts)
    if got is not None:
        return got
    return _FOREST_POOL.setdefault(ts, Forest(ts))


EMPTY_FOREST = forest()


def forest_union(a: Forest, b: Forest) -> Forest:
    return forest(a.trees + b.trees)


def bplus(f: Forest) -> LabeledTree:
    """Attach every tree of the forest under a fresh root labeled 0."""
    return node(GRAFT_ROOT_LABEL, f.trees)


def _require_grafting_root(t: LabeledTree) -> None:
    # The tree-constant routes are defined on grafting-rooted trees only.
    if t.label != GRAFT_ROOT_LABEL:
        raise ValueError("expected a grafting-rooted tree (root label 0)")


def branch_forest(t: LabeledTree) -> Forest:
    """Delete the root, leaving the forest of its branches."""
    return forest(t.children)


@memo.bottom_up
def tree_text(t: LabeledTree, kids: list[str]) -> str:
    return f"{t.label}({','.join(kids)})" if kids else str(t.label)


@memo.memoized
def forest_text(f: Forest) -> str:
    return "[" + ",".join(map(tree_text, f.trees)) + "]"


# Deepest nesting the parser accepts.  The parser and the grafting oracle
# graft_positions recurse once per level; the memo.bottom_up walks (tree_text,
# shape, automorphism_count, cut_results, the insertion behind insert_scion)
# and label_values do not; nested_cut_sums recurses once per k and the GL
# product tables once per scion, not once per level.
# Deeper text is refused before any tree is built, so it ends in a one-line
# ValueError, not a RecursionError.
MAX_PARSE_DEPTH = 100

# The one size ceiling: order_poly refuses a forest with more vertices,
# treehopf theta a tree with more non-root vertices, and the CLI a larger
# --max-weight or --max-vertices, so the three tree-constant routes accept
# the same trees.
MAX_ORDER_CEILING = 12


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def fail(self, what: str):
        raise ValueError(f"parse error at offset {self.pos}: expected {what} in {self.text!r}")

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(repr(ch))
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("an integer label")
        return int(self.text[start : self.pos])

    def tree(self, depth: int) -> LabeledTree:
        # depth counts the parentheses around this vertex; 0 is a root.
        if depth > MAX_PARSE_DEPTH:
            raise ValueError(
                f"parse error at offset {self.pos}: trees nested deeper than "
                f"{MAX_PARSE_DEPTH} levels are not supported"
            )
        lab = self.integer()
        if lab == GRAFT_ROOT_LABEL and depth:
            raise ValueError("label 0 is reserved for the root of grafting trees")
        kids: list[LabeledTree] = []
        if self.peek() == "(":
            self.pos += 1
            kids.append(self.tree(depth + 1))
            while self.peek() == ",":
                self.pos += 1
                kids.append(self.tree(depth + 1))
            self.expect(")")
        return node(lab, kids)

    def forest(self) -> Forest:
        self.expect("[")
        trees: list[LabeledTree] = []
        if self.peek() != "]":
            trees.append(self.tree(0))
            while self.peek() == ",":
                self.pos += 1
                trees.append(self.tree(0))
        self.expect("]")
        return forest(trees)

    def done(self):
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("end of input")


def parse_tree(text: str) -> LabeledTree:
    p = _Parser(text)
    t = p.tree(0)
    p.done()
    return t


def parse_forest(text: str) -> Forest:
    p = _Parser(text)
    f = p.forest()
    p.done()
    return f


# ---------------------------------------------------------------------------
# Structure predicates and invariants
# ---------------------------------------------------------------------------

def is_chain(t: LabeledTree) -> bool:
    """True when the tree has a single leaf (every vertex has at most one child)."""
    while t.children:
        if len(t.children) != 1:
            return False
        t = t.children[0]
    return True


def chain_leaf(t: LabeledTree) -> LabeledTree:
    while t.children:
        if len(t.children) != 1:
            raise ValueError("tree is not a chain")
        t = t.children[0]
    return t


@memo.bottom_up
def shape(t: LabeledTree, kids: list[LabeledTree]) -> LabeledTree:
    """Underlying unlabeled tree, represented with every label set to 1."""
    return node(1, kids)


@memo.bottom_up
def automorphism_count(t: LabeledTree, kids: list[int]) -> int:
    """Order of the label- and root-preserving automorphism group.

    Children are canonical, so equal siblings are adjacent; each class of m
    equal children contributes m! times the class automorphisms to the m-th
    power.
    """
    return _automorphisms(t.children, kids)


def forest_automorphisms(f: Forest) -> int:
    """Order of the automorphism group of the forest, that of bplus(f).

    Cached on the forest: the product tables read it for every result they
    convert between the bases.
    """
    a = f._alpha
    if a is None:
        a = f._alpha = _automorphisms(f.trees, [automorphism_count(t) for t in f.trees])
    return a


def _automorphisms(trees: tuple[LabeledTree, ...], counts: list[int]) -> int:
    # Canonical order puts equal trees side by side; the i-th of m equal
    # trees with a automorphisms each multiplies by i * a, m! * a**m in all.
    a, run, prev = 1, 0, None
    for t, c in zip(trees, counts):
        run = run + 1 if t is prev else 1
        a *= c * run
        prev = t
    return a


def label_values(obj: LabeledTree | Forest) -> frozenset[int]:
    """Nonzero labels occurring anywhere in the tree or forest."""
    out: set[int] = set()
    stack = list(obj.trees if isinstance(obj, Forest) else (obj,))
    while stack:
        t = stack.pop()
        if t.label != GRAFT_ROOT_LABEL:
            out.add(t.label)
        stack.extend(t.children)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Graded enumeration
# ---------------------------------------------------------------------------

def _norm_labels(labels: Iterable[int]) -> tuple[int, ...]:
    ls = tuple(sorted(set(labels)))
    if not ls:
        raise ValueError("label set must be nonempty")
    if any(not isinstance(x, int) or x < 1 for x in ls):
        raise ValueError(f"labels must be positive integers, got {ls}")
    return ls


def enumerate_trees(labels: Iterable[int], weight: int) -> tuple[LabeledTree, ...]:
    """All isomorphism classes of labeled trees of the given total weight."""
    ls = _norm_labels(labels)
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    return _trees_of_weight(ls, weight)


@memo.memoized
def _trees_of_weight(ls: tuple[int, ...], weight: int) -> tuple[LabeledTree, ...]:
    out: list[LabeledTree] = []
    for root_label in ls:
        if root_label <= weight:
            for f in _forests_bounded(ls, weight - root_label, None):
                out.append(node(root_label, f.trees))
    out.sort(key=_canonical)
    return tuple(out)


def enumerate_forests(labels: Iterable[int], weight: int) -> tuple[Forest, ...]:
    """All forests of the given total weight (weight 0 gives the empty forest)."""
    ls = _norm_labels(labels)
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    return _forests_bounded(ls, weight, None)


@memo.memoized
def _forests_bounded(ls: tuple[int, ...], weight: int, bound) -> tuple[Forest, ...]:
    # Forests whose trees are all canonically at most bound (any, for None),
    # each multiset once, its maximal tree peeled off first.  bound hashes by
    # identity.  Trees of one weight come sorted, so the loop stops at the
    # first above the bound; only the unbounded lists, which callers see, are sorted.
    if weight == 0:
        return (EMPTY_FOREST,)
    out: list[Forest] = []
    for k in range(1, weight + 1):
        for t in _trees_of_weight(ls, k):
            if bound is not None and t._key > bound._key:
                break
            for rest in _forests_bounded(ls, weight - k, t):
                out.append(forest((t,) + rest.trees))
    if bound is None:
        out.sort(key=_canonical)
    return tuple(out)


def enumerate_bplus_trees(labels: Iterable[int], weight: int) -> tuple[LabeledTree, ...]:
    """All grafting-rooted trees of the given weight (the root contributes 0)."""
    return tuple(bplus(f) for f in enumerate_forests(labels, weight))


# ---------------------------------------------------------------------------
# Cuts
# ---------------------------------------------------------------------------

@memo.bottom_up
def cut_results(t: LabeledTree, kid_cuts) -> tuple[tuple[Forest, LabeledTree, int], ...]:
    """All admissible cuts of the tree as (pruned forest, trunk, count).

    count is the number of edge sets that split the tree into that pair; the
    empty cut comes first.  The distinct subtrees are filled bottom-up, each
    memoized: at every child c, a cut either prunes c whole or takes a cut
    of c, and c's empty cut keeps c whole.  States are keyed by (pruned
    forest, forest of the trunk's children) and carry their counts.
    """
    states = {(EMPTY_FOREST, EMPTY_FOREST): 1}
    for c, cuts in zip(t.children, kid_cuts):
        grown: dict = {}
        for (pruned, kept), n in states.items():
            for p, trunk, m in cuts:
                key = (forest_union(pruned, p), forest(kept.trees + (trunk,)))
                grown[key] = grown.get(key, 0) + n * m
            key = (forest(pruned.trees + (c,)), kept)
            grown[key] = grown.get(key, 0) + n
        states = grown
    return tuple((pruned, node(t.label, kept.trees), n) for (pruned, kept), n in states.items())


@memo.memoized
def _single_edge_cuts(t: LabeledTree) -> tuple[tuple[tuple[LabeledTree, LabeledTree], int], ...]:
    # The distinct one-edge cuts of t as ((pruned subtree, trunk), multiplicity).
    # Walked from the root on an explicit stack, so a tree of any depth costs
    # no interpreter stack; one child of each class of equal siblings is
    # walked, counted with its copies.
    cuts = []
    stack = [(None, t, 1)]
    while stack:
        path, u, mult = stack.pop()
        start = 0
        for c, group in itertools.groupby(u.children):
            copies = len(tuple(group))
            to_c = (path, u, start)  # linked: (path to u, u, index of c)
            cuts.append(((c, _trunk_without(to_c)), mult * copies))
            stack.append((to_c, c, mult * copies))
            start += copies
    return tuple(_merged(cuts))


def _merged(pairs):
    # The (key, count) pairs with the counts of equal keys summed.
    counts: dict = {}
    for key, n in pairs:
        counts[key] = counts.get(key, 0) + n
    return counts.items()


def _trunk_without(path) -> LabeledTree:
    # The tree at the start of path with the child at its end removed.
    kept = ()
    while path is not None:
        path, u, i = path
        kept = (node(u.label, u.children[:i] + kept + u.children[i + 1 :]),)
    return kept[0]


def nested_cut_sums(t: LabeledTree, k: int, piece, trunk) -> tuple[int, tuple[int, ...]]:
    """S_1(t), ..., S_k(t) as integer numerators over one denominator.

    The sums obey

        S_0(T) = trunk(T),
        S_j(T) = sum over non-root v of piece(T_v) * S_{j-1}(T minus T_v),

    so all of them are filled in one pass over the single-edge cuts of t,
    memoized on the trunk: every cut reads the vector (trunk, S_1, ...,
    S_{k-1}) of what it leaves.  The result is ``(den, nums)`` in lowest
    terms with S_j(t) = nums[j-1] / den.  k is clipped to t's vertex count
    minus one, beyond which every S_j is zero, so a call for every k and the
    calls on every trunk below it share one memo entry each.  A piece is
    skipped when the whole vector of its trunk is zero; a caller whose piece
    of t's root branch would be its own unknown (the tree constant theta)
    relies on this.  piece and trunk must be pure functions returning
    Fractions.  The recursion is k levels deep.
    """
    k = min(k, t.size - 1)
    return _nested_cut_sums(t, k, piece, trunk) if k > 0 else (1, ())


def nested_cut_terms(t: LabeledTree, piece, trunk) -> tuple[list[int], int]:
    """S_{k-1}(t) / k! for k = 2..|t| as integer numerators over one denominator.

    These are the coefficients of s^k in sum_k S_{k-1}(t) s^k / k!, read from
    one :func:`nested_cut_sums` call; the denominator is its den times |t|!.
    """
    n = t.size
    den, sums = nested_cut_sums(t, n - 1, piece, trunk)
    top = factorial(n)
    return [s * (top // factorial(k)) for k, s in enumerate(sums, 2)], den * top


@memo.memoized
def _nested_cut_sums(t: LabeledTree, k: int, piece, trunk) -> tuple[int, tuple[int, ...]]:
    rows = []
    den = 1
    for (x, rest), copies in _single_edge_cuts(t):
        c = trunk(rest)
        inner_k = min(k - 1, rest.size - 1)
        d, inner = _nested_cut_sums(rest, inner_k, piece, trunk) if inner_k > 0 else (1, ())
        m = lcm(c.denominator, d)
        vec = (c.numerator * (m // c.denominator), *[n * (m // d) for n in inner])
        if not any(vec):
            continue
        p = piece(x)
        if p:
            row_den = p.denominator * m
            rows.append((copies * p.numerator, row_den, vec))
            den = lcm(den, row_den)
    acc = [0] * k
    for a, row_den, vec in rows:
        a *= den // row_den
        for j, n in enumerate(vec):
            acc[j] += a * n
    g = gcd(den, *acc)
    return den // g, tuple([n // g for n in acc])


def graft_positions(scions: Forest, stock: LabeledTree) -> list[LabeledTree]:
    """All attachments of each scion root to a vertex of the stock.

    The stock must carry the 0-labeled grafting root.  The result lists one
    tree per assignment of the m scions to the v(stock) vertices, so its
    length is v(stock)**m, before any merging of isomorphic results.
    """
    if stock.label != GRAFT_ROOT_LABEL:
        raise ValueError("stock must have the 0-labeled grafting root")
    out = []
    for assign in itertools.product(range(stock.size), repeat=len(scions.trees)):
        extra: dict[int, list[LabeledTree]] = {}
        for v, scion in zip(assign, scions.trees):
            extra.setdefault(v, []).append(scion)
        out.append(_attach(stock, itertools.count(), extra))
    return out


def _attach(u: LabeledTree, counter, extra: dict[int, list[LabeledTree]]) -> LabeledTree:
    # u with each scion of extra attached at its preorder vertex.
    v = next(counter)
    kids = [_attach(c, counter, extra) for c in u.children]
    kids.extend(extra.get(v, ()))
    return node(u.label, kids)


@memo.memoized
def insert_scion(scion: LabeledTree, f: Forest, at_root: bool) -> tuple:
    """Attach the scion at each vertex of the trees of f, one vertex at a time.

    With ``at_root`` the root of bplus(f) is a vertex too, which adds the
    scion to f as a new tree.  Returns the distinct resulting forests with
    the number of vertices giving each, flat: ``(r1, n1, r2, n2, ...)``.
    Results are distinct without merging: they differ in which tree of f
    grew, or where below it.  Memoized on (scion, f, at_root), and the
    insertion into each tree on (subtree, scion), filled bottom-up.
    """
    out = [forest(f.trees + (scion,)), 1] if at_root else []
    trees = f.trees
    start = 0
    for t, group in itertools.groupby(trees):
        k = len(tuple(group))
        rest = trees[:start] + trees[start + 1 :]
        start += k
        flat = iter(_insert_into_tree(t, scion))
        for r, n in zip(flat, flat):
            out += (forest(rest + (r,)), k * n)
    return tuple(out)


@memo.bottom_up
def _insert_into_tree(t: LabeledTree, kid_results, scion: LabeledTree) -> tuple:
    # The trees with the scion attached at one vertex of t, flat (r1, n1, ...).
    kids = t.children
    out = [node(t.label, kids + (scion,)), 1]
    start = 0
    for _, group in itertools.groupby(kids):
        k = len(tuple(group))
        rest = kids[:start] + kids[start + 1 :]
        flat = iter(kid_results[start])
        start += k
        for r, n in zip(flat, flat):
            out += (node(t.label, rest + (r,)), k * n)
    return tuple(out)
