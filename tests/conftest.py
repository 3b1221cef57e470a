import hypothesis.strategies as st
import pytest
from hypothesis import settings

from treehopf import memo, trees

settings.register_profile("default", max_examples=60, deadline=None)
settings.load_profile("default")


def raw_trees(max_depth=3, max_children=3, labels=(1, 2, 3)):
    """Nested (label, [children]) descriptions, children in arbitrary order."""
    return st.recursive(
        st.sampled_from(labels).map(lambda lab: (lab, [])),
        lambda kids: st.tuples(
            st.sampled_from(labels),
            st.lists(kids, max_size=max_children),
        ).map(lambda pair: (pair[0], list(pair[1]))),
        max_leaves=max_depth * max_children,
    )


def build_tree(raw):
    """The interned tree of a nested (label, [children]) description."""
    label, kids = raw
    return trees.node(label, [build_tree(k) for k in kids])


def canonical_trees(labels=(1, 2, 3), max_depth=3, max_children=3):
    return raw_trees(max_depth, max_children, labels).map(build_tree)


@pytest.fixture
def clear_memo_tables():
    """A function that empties every memo table but the intern pools, whose
    trees the tests hold."""

    def clear():
        pools = (trees._TREE_POOL, trees._FOREST_POOL)
        for table in memo.TABLES:
            if not any(table is pool for pool in pools):
                table.clear()

    return clear
