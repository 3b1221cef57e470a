"""The memo decorators, and the rule that every memo table sits behind them."""

import ast
from pathlib import Path

import treehopf
from treehopf import memo
from treehopf.trees import parse_tree


def _counting_size():
    calls = []

    @memo.bottom_up
    def size(t, kids):
        calls.append(t)
        return 1 + sum(kids)

    return size, calls


def test_bottom_up_combines_each_distinct_subtree_once():
    size, calls = _counting_size()
    t = parse_tree("1(2(3,3),2(3,3),2(3,3),3)")
    assert size(t) == t.size == 11
    # The distinct subtrees are 3, 2(3,3) and the root.
    assert len(calls) == len(set(calls)) == 3
    assert set(size.table) == {(u,) for u in calls}


def test_bottom_up_cold_and_warm_calls_agree():
    size, calls = _counting_size()
    small = parse_tree("1(1(1),1)")
    big = parse_tree("2(1(1(1),1),1(1),2)")
    assert size(small) == small.size
    assert len(calls) == 3
    # The second tree reuses the entries of the first and fills the rest:
    # the leaf 2 and its root.
    assert size(big) == big.size
    assert len(calls) == 5
    assert size(big) == big.size and size(small) == small.size
    assert len(calls) == 5


def test_bottom_up_keys_extra_arguments_apart():
    @memo.bottom_up
    def weighted(t, kids, scale):
        return scale * t.label + sum(kids)

    t = parse_tree("1(2,3(4))")
    assert weighted(t, 1) == 10
    assert weighted(t, 10) == 100
    assert weighted(t.children[1], 10) == 70
    assert (t, 1) in weighted.table and (t, 10) in weighted.table


def test_memo_tables_outside_memo_are_only_the_intern_pools():
    # Every memo table is made by memo.memoized or memo.bottom_up and is read
    # and written only there; the intern pools are the two direct tables.
    package = Path(treehopf.__file__).resolve().parent
    calls, pools = 0, []
    for path in sorted(package.glob("*.py")):
        if path.name == "memo.py":
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call) and ast.unparse(n.func) == "memo.table":
                calls += 1
            elif isinstance(n, ast.Assign) and ast.unparse(n.value) == "memo.table()":
                pools += [ast.unparse(target) for target in n.targets]
            elif isinstance(n, ast.Attribute) and n.attr in ("get", "setdefault"):
                assert not ast.unparse(n.value).endswith(".table"), path.name
    assert calls == len(pools)
    assert sorted(pools) == ["_FOREST_POOL", "_TREE_POOL"]


def test_the_collector_is_paused_only_at_the_entry_points():
    # The pause is for whole computations: on a memo wrapper or a kernel it
    # would cost a gc.isenabled() per call on the hot path.  Every use of
    # memo.collector_paused is a decorator, on exactly these functions.
    package = Path(treehopf.__file__).resolve().parent
    uses, paused = 0, set()
    for path in sorted(package.glob("*.py")):
        if path.name == "memo.py":
            continue
        tree = ast.parse(path.read_text())
        uses += sum(
            ast.unparse(n) == "memo.collector_paused" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
        )
        for n in ast.walk(tree):
            if isinstance(n, ast.FunctionDef):
                marks = [ast.unparse(d) for d in n.decorator_list]
                if "memo.collector_paused" in marks:
                    assert marks == ["memo.collector_paused"], (path.stem, n.name)
                    paused.add(f"{path.stem}.{n.name}")
    assert uses == len(paused)
    assert paused == {
        "cli.main",
        "ncs.build_omega",
        "ncs.verify_ncs",
        "ncs.kappa_expansion_check",
        "duality.check_hopf_adjunction",
        "ncs.specialization_check",
        "ncs.hopf_morphism_check",
        "ncs.specialization_rank",
        "ncs.theta_agreement_report",
        "orderpoly.orderpoly_suite",
    }


def test_every_module_level_import_is_used():
    # A name a module imports at its top level and never reads is dead
    # weight; the one kept is gl's re-export of the per-assignment grafting
    # oracle, which the tracer rebinds there.
    allowed = {("gl", "graft_positions")}
    package = Path(treehopf.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = [
            (alias.asname or alias.name).split(".")[0]
            for n in tree.body
            if isinstance(n, ast.Import)
            or isinstance(n, ast.ImportFrom) and n.module != "__future__"
            for alias in n.names
        ]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            (path.stem, name)
            for name in bound
            if name not in read and (path.stem, name) not in allowed
        ]
    assert unused == []


def test_every_module_level_private_function_is_referenced():
    # A private helper that nothing in the package names outside its own
    # definition is left over from a deleted path.
    package = Path(treehopf.__file__).resolve().parent

    def names(node):
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    bodies = {path.stem: ast.parse(path.read_text()).body for path in package.glob("*.py")}
    read = {stem: [names(n) for n in body] for stem, body in bodies.items()}
    unreferenced = []
    for stem, body in sorted(bodies.items()):
        outside = set().union(*[s for other, ss in read.items() if other != stem for s in ss])
        for i, fn in enumerate(body):
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_"):
                rest = outside.union(*read[stem][:i], *read[stem][i + 1:])
                if fn.name not in rest:
                    unreferenced.append(f"{stem}.{fn.name}")
    assert unreferenced == []
