"""Checks on the package source itself."""

import ast
from pathlib import Path

import scx

SOURCE = Path(scx.__file__).parent


def test_no_assert_statement_in_the_package():
    # `python -O` strips assert statements, and the certificates must still run
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.glob("*.py"))) > 10
    assert found == []


def _nodes():
    """(module, innermost enclosing function or None, node) of every node of
    the package."""
    found = []

    def visit(node, where, module):
        for child in ast.iter_child_nodes(node):
            found.append((module, where, child))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner, module)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), None, path.name)
    return found


def _named(node, name):
    return isinstance(node, (ast.Name, ast.Attribute)) and name in (
        getattr(node, "id", None),
        getattr(node, "attr", None),
    )


def _uses(name):
    """(module, innermost enclosing function or None) of every reference to
    ``name`` in the package, as a bare name or an attribute."""
    return [(module, where) for module, where, node in _nodes() if _named(node, name)]


def test_no_rank_falls_back_to_bareiss():
    # every rank is one column reduction: Bareiss serves the nullspaces and
    # the reference rank over Q, which nothing in the package calls
    assert sorted(set(_uses("_bareiss"))) == [
        ("exact.py", "rank_rational"),
        ("exact.py", "right_nullspace"),
    ]
    assert _uses("rank_rational") == []


def test_only_rigidity_sampling_limits_a_reduction():
    # a rigidity rank may stop at the Asimow-Roth bound, which no embedding
    # exceeds; a Betti rank has no such bound, and with clearing a limit
    # there would give wrong ranks
    calls = [
        (module, where, node)
        for module, where, node in _nodes()
        if isinstance(node, ast.Call) and _named(node.func, "_reduce")
    ]
    assert sorted((module, where) for module, where, _ in calls) == [
        ("exact.py", "rank_sparse"),
        ("homology.py", "_betti"),
        ("rigidity.py", "_samples"),
    ]
    limited = [
        (module, where)
        for module, where, node in calls
        if len(node.args) > 2 or node.keywords
    ]
    assert limited == [("rigidity.py", "_samples")]
    assert sorted(set(_uses("_reduce"))) == sorted((module, where) for module, where, _ in calls)


#: the decorators that cache a function's results
CACHES = ("lru_cache", "cache", "cached_property")


def test_every_cache_is_an_order_type_memo_in_homology():
    # caching in one place: each cache is an LRU of BETTI_MEMO entries in
    # homology.py whose key is read off an order type.  _ball and _class_key
    # take the order type itself; _betti and _is_sphere take its class key,
    # or the masks of a memo that already holds one
    def caches(decorator):
        return any(_named(getattr(decorator, "func", decorator), c) for c in CACHES)

    def order_type(key):
        return isinstance(key, ast.Call) and _named(key.func, "_order_type")

    memos = {
        node.name: (module, node)
        for module, _, node in _nodes()
        if isinstance(node, ast.FunctionDef) and any(map(caches, node.decorator_list))
    }
    by_order_type, by_class_key = {"_ball", "_class_key"}, {"_betti", "_is_sphere"}
    assert memos.keys() == by_order_type | by_class_key
    for module, node in memos.values():
        assert module == "homology.py"
        assert [ast.unparse(d) for d in node.decorator_list] == [
            "functools.lru_cache(maxsize=BETTI_MEMO)"
        ]
        assert node.args.args[0].arg == "masks"
    assert sum(len(_uses(c)) for c in CACHES) == len(memos)  # no cache but these
    calls = [
        (node.func.id, where, node.args[0])
        for _, where, node in _nodes()
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in memos
    ]
    assert {memo for memo, _, _ in calls} == memos.keys()
    for memo, where, key in calls:
        if memo in by_order_type:
            assert order_type(key), (memo, ast.unparse(key))
        else:
            assert (
                isinstance(key, ast.Call)
                and _named(key.func, "_class_key")
                and order_type(key.args[0])
            ) or (ast.unparse(key) == "masks" and where in by_class_key), ast.unparse(key)


def test_only_the_closure_helper_enumerates_submasks():
    # one closure routine: the step x = (x - 1) & m, which walks the
    # submasks of m, appears in complexes._closure_masks alone, which the
    # complexes' bitmask closures and the Betti misses share
    def step(node):
        if not (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, ast.BitAnd)
        ):
            return False
        names = {t.id for t in node.targets if isinstance(t, ast.Name)}
        return any(
            isinstance(side, ast.BinOp)
            and isinstance(side.op, ast.Sub)
            and getattr(side.left, "id", None) in names
            and ast.unparse(side.right) == "1"
            for side in (node.value.left, node.value.right)
        )

    assert [(module, where) for module, where, node in _nodes() if step(node)] == [
        ("complexes.py", "_closure_masks")
    ]
    assert sorted(set(_uses("_closure_masks"))) == [
        ("complexes.py", "_mask_closure"),
        ("homology.py", "_betti"),
    ]
