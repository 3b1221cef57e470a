import hypothesis.strategies as st
from hypothesis import settings

from treehopf import trees

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
