"""Checks on the package source itself."""

import ast
import functools
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


@functools.cache
def _nodes():
    """(module, innermost enclosing function or None, node) of every node of
    the package, parsed once per session."""
    found = []

    def visit(node, where, module):
        for child in ast.iter_child_nodes(node):
            found.append((module, where, child))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner, module)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), None, path.name)
    return tuple(found)


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
        ("exact.py", "rank_mod"),
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


def test_the_sparse_rank_reference_lives_in_the_oracle():
    # no package code ranked sparse columns through rank_sparse: it is a test
    # reference in tests/oracle.py, and rank_mod hands its columns to _reduce
    defined = [
        (module, node.name)
        for module, _, node in _nodes()
        if isinstance(node, ast.FunctionDef) and node.name == "rank_sparse"
    ]
    assert defined == []
    assert _uses("rank_sparse") == []


def test_one_mask_order_reads_vertex_tuples():
    # complexes._tuple_order is the one sort of face masks in vertex-tuple
    # order: no key= lambda in the package reads a mask's bits or bit lengths
    keys = [
        (module, where, ast.unparse(k.value))
        for module, where, node in _nodes()
        if isinstance(node, ast.Call)
        for k in node.keywords
        if k.arg == "key" and isinstance(k.value, ast.Lambda)
        and any(_named(n, "_bits") or _named(n, "bit_length") for n in ast.walk(k.value))
    ]
    assert keys == []


def test_one_component_routine_answers_every_connectivity_question():
    # complexes._components on bitmasks is the only connectivity routine:
    # no other, and no union-find, and exactly these four callers
    defined = [
        (module, where, node.name)
        for module, where, node in _nodes()
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_components", "_is_connected", "find")
    ]
    assert defined == [("complexes.py", None, "_components")]
    assert _uses("_is_connected") == _uses("find") == []
    calls = [
        (module, where)
        for module, where, node in _nodes()
        if isinstance(node, ast.Call) and _named(node.func, "_components")
    ]
    assert sorted(set(calls)) == [
        ("complexes.py", "detect_join"),
        ("complexes.py", "is_connected"),
        ("homology.py", "is_normal_pseudomanifold"),
        ("retriangulate.py", "_split_link_along"),
    ]
    assert sorted(_uses("_components")) == sorted(calls)


def test_one_neighbourhood_routine_and_one_link_reader_on_facet_masks():
    # complexes._neighbourhoods builds every vertex neighbourhood and
    # complexes._link reads every face link on masks, each with exactly these
    # callers; no package code labels an adjacency
    defined = [
        (module, where, node.name)
        for module, where, node in _nodes()
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_neighbourhoods", "_link", "_links", "_require_face")
    ]
    assert defined == [("complexes.py", None, "_link"), ("complexes.py", None, "_neighbourhoods")]
    assert _uses("_links") == _uses("_require_face") == []

    def calls(name):
        return [
            (module, where)
            for module, where, node in _nodes()
            if isinstance(node, ast.Call) and _named(node.func, name)
        ]

    assert sorted(calls("_neighbourhoods")) == sorted(_uses("_neighbourhoods")) == [
        ("complexes.py", "adjacency"),
        ("complexes.py", "detect_join"),
        ("homology.py", "skeleton_completion"),
        ("isomorphism.py", "_vertex_classes"),
    ]
    assert sorted(calls("_link")) == sorted(_uses("_link")) == [
        ("complexes.py", "_through"),
        ("homology.py", "_ball_sweep"),
        ("homology.py", "_vertex_sweep"),
        ("homology.py", "_vertex_sweep"),
        ("homology.py", "is_normal_pseudomanifold"),
    ]
    adjacency = [
        (module, where, ast.unparse(node))
        for module, where, node in _nodes()
        if isinstance(node, ast.Call) and _named(node.func, "adjacency")
    ]
    assert adjacency == []
    assert _uses("adjacency") == []


def test_the_isomorphism_test_reads_no_closure():
    # its vertex classes come from the facet masks and their neighbourhoods,
    # so neither the link f-vectors nor a closure serve it, and the search
    # runs on vertex bits: no labelled face, vertex set or adjacency
    names = (
        "_link_f_vectors", "_mask_closure", "_closure_masks",
        "facets", "vertices", "adjacency", "faces", "faces_of_dim", "_labelled",
    )
    assert [where for name in names for where in _uses(name) if where[0] == "isomorphism.py"] == []


#: the decorators that cache a function's results
CACHES = ("lru_cache", "cache", "cached_property")


def test_every_cache_is_an_order_type_memo_in_homology():
    # caching in one place: each cache is an LRU of BETTI_MEMO entries in
    # homology.py keyed by an order type and, but for the shelling search,
    # the field.  Every memo call passes the order type a complex keeps,
    # cx._masks[1], which only _of_masks writes, an _order_type(...) call,
    # a name that its function binds once, to such a call, or, inside a
    # memo, that memo's own masks.  _shells, which hands its masks to the
    # search memo, takes them from its callers by the same rule.  No memo
    # takes any other parameter
    def caches(decorator):
        return any(_named(getattr(decorator, "func", decorator), c) for c in CACHES)

    def order_type(key):
        kept = ast.unparse(key) == "cx._masks[1]"
        return kept or isinstance(key, ast.Call) and _named(key.func, "_order_type")

    writes = [
        (where, ast.unparse(node.value))
        for _, where, node in _nodes()
        if isinstance(node, ast.Assign)
        and any(_named(part, "_masks") for target in node.targets for part in ast.walk(target))
    ]
    stored = "((bit, _order_type(masks)), max(map(int.bit_count, masks)) - 1)"
    assert writes == [("_of_masks", stored)]

    memos = {
        node.name: (module, node)
        for module, _, node in _nodes()
        if isinstance(node, ast.FunctionDef) and any(map(caches, node.decorator_list))
    }
    assert memos.keys() == {"_betti", "_ball", "_shelling"}
    for module, node in memos.values():
        assert module == "homology.py"
        assert [ast.unparse(d) for d in node.decorator_list] == [
            "functools.lru_cache(maxsize=BETTI_MEMO)"
        ]
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        assert params in (["masks"], ["masks", "field"]), (node.name, params)
        assert args.vararg is args.kwarg is None, node.name
    assert sum(len(_uses(c)) for c in CACHES) == len(memos)  # no cache but these
    binds = {}  # (function, name) -> the values bound to the name
    for _, where, node in _nodes():
        if isinstance(node, ast.Assign):
            for name in (n for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                binds.setdefault((where, name.id), []).append(node.value)

    def bound(where, key):
        values = binds.get((where, ast.unparse(key)), [])
        return len(values) == 1 and order_type(values[0])

    keyed = memos.keys() | {"_shells"}
    calls = [
        (node.func.id, where, node.args[0])
        for _, where, node in _nodes()
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in keyed
    ]
    assert {memo for memo, _, _ in calls} == keyed
    assert [where for memo, where, _ in calls if memo == "_shelling"] == ["_shells"]
    for memo, where, key in calls:
        own = ast.unparse(key) == "masks" and where in keyed
        assert order_type(key) or bound(where, key) or own, (memo, where, ast.unparse(key))


def test_only_the_closure_helper_enumerates_submasks():
    # one closure routine: the step x = (x - 1) & m, which walks the
    # submasks of m, appears in complexes._closure_masks alone, which the
    # complexes' bitmask closures, the Betti misses, the ball analyses and
    # the manifold sweep (a vertex link's shelling certificate and its later
    # faces) share
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
        ("homology.py", "_ball"),
        ("homology.py", "_betti"),
        ("homology.py", "_vertex_sweep"),
    ]


def test_a_complex_has_one_closure_construction():
    # faces() and faces_of_dim() label the bitmask closure, so the closure
    # bound is checked where the submasks are enumerated, no method of
    # SimplicialComplex builds subsets of its own, and the bitmask closure
    # is the only one a complex keeps: no slot holds a labelled copy
    assert _uses("_check_closure_bound") == [("complexes.py", "_closure_masks")]
    tree = ast.parse((SOURCE / "complexes.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SimplicialComplex"]
    assert not [n for n in ast.walk(cls) if _named(n, "combinations")]
    assert scx.SimplicialComplex.__slots__ == ("_masks", "_dim", "_facets", "_closure")


def test_one_antichain_reduction_on_facet_masks():
    # complexes._maximal, on masks, is the only antichain reduction, and the
    # mask constructor, which every complex goes through, its only caller:
    # the skeleton completion hands its accepted masks to that constructor
    defined = [
        (module, where)
        for module, where, node in _nodes()
        if isinstance(node, ast.FunctionDef) and node.name == "_maximal"
    ]
    assert defined == [("complexes.py", None)]
    assert _uses("_maximal") == [("complexes.py", "_of_masks")]


def test_every_derived_complex_is_built_from_masks():
    # one private constructor from masks, SimplicialComplex._of_masks, with
    # the order type and the link rule beside it in complexes.py; in
    # complexes.py, homology.py and retriangulate.py only the public
    # constructors call the labelled one, and each move that replaces a few
    # facets, a connected sum's included, does so through complexes._replaced
    defined = [
        (module, where, node.name)
        for module, where, node in _nodes()
        if isinstance(node, ast.FunctionDef) and node.name in ("_of_masks", "_order_type", "_link")
    ]
    assert defined == [
        ("complexes.py", None, "_order_type"),
        ("complexes.py", None, "_link"),
        ("complexes.py", None, "_of_masks"),
    ]
    labelled = [
        (module, where)
        for module, where, node in _nodes()
        if module in ("complexes.py", "homology.py", "retriangulate.py")
        and isinstance(node, ast.Call)
        and any(_named(node.func, n) for n in ("SimplicialComplex", "from_faces", "from_facets"))
    ]
    assert sorted(labelled) == [("complexes.py", "from_faces"), ("complexes.py", "from_facets")]
    replaced = [
        (module, where)
        for module, where, node in _nodes()
        if isinstance(node, ast.Call) and _named(node.func, "_replaced")
    ]
    assert sorted(replaced) == sorted(_uses("_replaced")) == [
        ("complexes.py", "connected_sum"),
        ("complexes.py", "stack_over_facet"),
        ("retriangulate.py", "_swartz_move"),
        ("retriangulate.py", "central_retriangulation"),
        ("retriangulate.py", "inverse_stellar"),
    ]


def test_one_presence_rule_serves_membership_links_and_stars():
    # a face is present when some facet contains it: __contains__, the star
    # facets of link, star and antistar, the facet tests of stack_over_facet
    # and connected_sum, and the missing face tau of a Swartz move, which it
    # splits a link along, read _through, which reads _link on the facet masks; none of them
    # reads a closure or a labelled facet
    assert sorted(_uses("_through")) == [
        ("complexes.py", "__contains__"),
        ("complexes.py", "_star_facets"),
        ("complexes.py", "connected_sum"),
        ("complexes.py", "connected_sum"),
        ("complexes.py", "stack_over_facet"),
        ("retriangulate.py", "_split_link_along"),
        ("retriangulate.py", "swartz_operation"),
    ]
    assert sorted(_uses("_star_facets")) == [
        ("complexes.py", "antistar"),
        ("complexes.py", "link"),
        ("complexes.py", "star"),
    ]
    closure = ("_mask_closure", "_closure", "_closure_masks", "_group", "faces", "faces_of_dim")
    labelled = ("facets", "_facets", "_labelled")
    readers = [
        ast.unparse(node)
        for module, where, node in _nodes()
        if module == "complexes.py"
        and where
        in ("__contains__", "_through", "_star_facets", "link", "star", "stack_over_facet",
            "connected_sum")
        and any(_named(node, name) for name in closure + labelled)
    ]
    assert readers == []



def test_retriangulations_leave_vertex_presence_to_link():
    # a move at v reads cx.link([v]) first, whose presence rule refuses an
    # absent or unhashable v: retriangulate.py tests no label against a
    # vertex set with in or not in
    tests = [
        ast.unparse(node)
        for module, _, node in _nodes()
        if module == "retriangulate.py" and isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        and any(_named(right, "vertices") for right in node.comparators)
    ]
    assert tests == []


def test_one_expression_reads_a_balls_least_stackedness():
    # the least dimension of an interior face: homology._ball_checked computes
    # it once per call; is_r_stacked_ball and the inverse stellar check take
    # the ball's dimension less it, the g-bookkeeping of both moves takes it
    differences = [
        node.right
        for _, _, node in _nodes()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
    ]
    readers = [
        (module, where)
        for module, where, node in _nodes()
        if isinstance(node, ast.Call) and _named(node.func, "min")
        and (node in differences or any(_named(n, "interior") for n in ast.walk(node)))
    ]
    assert readers == [("homology.py", "_ball_checked")]


def test_fresh_labels_and_vertex_changes_are_read_off_the_complexes():
    # complexes._replaced alone chooses the fresh labels, and _record reads
    # the new and removed vertices off the input and output: retriangulate.py
    # computes no label with max() and hands _record no vertex list
    calls = [
        node
        for module, _, node in _nodes()
        if module == "retriangulate.py" and isinstance(node, ast.Call)
    ]
    assert [ast.unparse(call) for call in calls if _named(call.func, "max")] == []
    records = [call for call in calls if _named(call.func, "_record")]
    assert len(records) == 4  # the three moves and swartz_all
    stated = ("new_vertices", "removed_vertices")
    assert [k.arg for call in records for k in call.keywords if k.arg in stated] == []


def test_one_reader_takes_a_closure_group():
    # SimplicialComplex._group writes the rule for a dimension outside
    # -1..dim (no faces) and one that is not an integer (MalformedInputError)
    # once: it is the only reader of the closure's groups by size, besides
    # facevectors._link_f_vectors, which walks every group; other readers
    # take the closure's members, _mask_closure()[1]
    nodes = _nodes()
    members = [
        node.value
        for _, _, node in nodes
        if isinstance(node, ast.Subscript) and ast.unparse(node.slice) == "1"
    ]
    readers = [
        (module, where)
        for module, where, node in nodes
        if isinstance(node, ast.Call)
        and _named(node.func, "_mask_closure")
        and not any(node is m for m in members)
    ]
    assert sorted(readers) == [("complexes.py", "_group"), ("facevectors.py", "_link_f_vectors")]


def test_one_rule_reads_an_entry_past_the_end():
    # facevectors._entry alone reads an entry that may lie outside its tuple
    # as 0: the f-, h- and g-vectors and the Betti profile index their
    # entries only through it, each in one reader, and the h-difference
    # reader it replaced is gone
    nodes = _nodes()
    defined = [
        (module, node.name)
        for module, _, node in nodes
        if isinstance(node, ast.FunctionDef) and node.name in ("_entry", "_h_difference")
    ]
    assert defined == [("facevectors.py", "_entry")]
    assert _uses("_h_difference") == []
    classes = {
        node.name: node
        for _, _, node in nodes
        if isinstance(node, ast.ClassDef)
        and node.name in ("FVector", "HVector", "GVector", "BettiProfile")
    }
    assert len(classes) == 4
    for name, cls in classes.items():
        indexed = [
            ast.unparse(n)
            for n in ast.walk(cls)
            if isinstance(n, ast.Subscript) and _named(n.value, "entries")
        ]
        assert indexed == [], name
        entries = [n for n in ast.walk(cls) if isinstance(n, ast.Call) and _named(n.func, "_entry")]
        assert len(entries) == 1, name


def test_only_the_sphere_verdicts_try_a_shelling():
    # homology._shells shells a sphere or a ball from the facet masks: the
    # sphere test, the manifold test and its sweep of the vertex links, and
    # the ball analysis consult it, each before any Betti number, and the
    # normal pseudomanifold test before its link sweep.  The search, memoised in
    # homology._shelling, reads no closure: it names no closure helper,
    # closure group or Betti reader, and takes no closure parameter.
    # _shells calls its closure parameter, for the certificate, once, after
    # the return that ends a failed search, so on every call, a memo hit
    # included
    assert sorted(set(_uses("_shells"))) == [
        ("homology.py", "_ball"),
        ("homology.py", "_vertex_sweep"),
        ("homology.py", "is_homology_manifold"),
        ("homology.py", "is_homology_sphere"),
        ("homology.py", "is_normal_pseudomanifold"),
    ]
    functions = {
        node.name: node
        for module, _, node in _nodes()
        if isinstance(node, ast.FunctionDef) and node.name in ("_shells", "_shelling")
    }
    shells, search = functions["_shells"], functions["_shelling"]
    names = {"_closure_masks", "_mask_closure", "_group", "_betti", "betti", "closure"}
    assert not [ast.unparse(n) for n in ast.walk(search) if any(_named(n, x) for x in names)]
    assert [a.arg for a in search.args.args] == ["masks"]
    (loop,) = [n for n in search.body if isinstance(n, ast.While)]
    after = search.body[search.body.index(loop) + 1 :]
    assert ast.unparse(after[0]) == "if len(placed) < len(masks):\n    return (False, (), ())"
    failed = next(n for n in shells.body if isinstance(n, ast.If))
    assert ast.unparse(failed) == "if not shelled:\n    return (False, ())"
    reads = [n for n in ast.walk(shells) if isinstance(n, ast.Call) and _named(n.func, "closure")]
    assert len(reads) == 1 and reads[0].lineno > failed.end_lineno


def test_no_homology_function_comes_back_to_itself():
    # the call graph of the functions in homology.py has no cycle: each
    # verdict sweeps its face links in one pass, with no recursion.  A
    # function counts as called wherever its name is read, so one passed
    # to map or functools.partial is an edge too
    tree = ast.parse((SOURCE / "homology.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    callees = {
        name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in functions}
        for name, node in functions.items()
    }

    def returns_to(name):
        seen, todo = set(), list(callees[name])
        while todo:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo.extend(callees[callee])
        return name in seen

    assert "_vertex_sweep" in callees["is_homology_sphere"]
    assert [name for name in functions if returns_to(name)] == []


def test_every_homology_reader_takes_its_complex_by_one_rule():
    # each public function of homology.py whose first parameter is a complex
    # reads it through facevectors._complex, as the face-vector readers do
    tree = ast.parse((SOURCE / "homology.py").read_text())
    readers = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.args.args
        and node.args.args[0].arg == "cx"
    ]
    assert sorted(node.name for node in readers) == [
        "ball_boundary",
        "betti",
        "boundary_matrix",
        "chain_complex",
        "interior_faces",
        "is_homology_ball",
        "is_homology_manifold",
        "is_homology_sphere",
        "is_normal_pseudomanifold",
        "is_r_stacked_ball",
        "skeleton_completion",
    ]
    for node in readers:
        assert [n for n in ast.walk(node) if _named(n, "_complex")], node.name


def test_one_rule_per_kind_of_argument():
    # a bool is refused only as a vertex label; every integer argument reads
    # a bool by errors._index, so no other isinstance test names bool
    bool_tests = [
        (module, where)
        for module, where, node in _nodes()
        if isinstance(node, ast.Call) and _named(node.func, "isinstance")
        and any(_named(n, "bool") for arg in node.args[1:] for n in ast.walk(arg))
    ]
    assert bool_tests == [("complexes.py", "as_face")]
    # an integer, an iterable, the faces of a complex and a path are each
    # refused by one reader that turns a caught TypeError or AttributeError
    # into MalformedInputError; join and is_m_sequence had their own
    converters = [
        (module, where)
        for module, where, node in _nodes()
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(_named(n, "TypeError") or _named(n, "AttributeError") for n in ast.walk(node.type))
        and any(
            isinstance(n, ast.Raise) and n.exc is not None
            and any(_named(m, "MalformedInputError") for m in ast.walk(n.exc))
            for n in ast.walk(node)
        )
    ]
    assert sorted(converters) == [
        ("complexes.py", "__init__"),
        ("complexes.py", "_items"),
        ("errors.py", "_index"),
        ("fileio.py", "_path"),
    ]



def test_one_rule_judges_every_verification_instance():
    # every yield of a runner is `yield _judged(...)` or a `yield from`, so no
    # runner builds its own (name, ok, detail) or joins its checks with `and`;
    # and only _judged writes which checks failed
    runners = {
        node.name
        for module, _, node in _nodes()
        if module == "verify.py" and isinstance(node, ast.FunctionDef)
        and node.name.startswith("_run_")
    }
    assert len(runners) == 17
    in_runners = [
        node for module, where, node in _nodes() if module == "verify.py" and where in runners
    ]
    judged = [
        node.value for node in in_runners
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call)
        and _named(node.value.func, "_judged")
    ]
    assert len(judged) == sum(isinstance(node, ast.Yield) for node in in_runners) >= 20
    joined = [
        ast.unparse(k.value)
        for call in judged
        for k in call.keywords
        if any(isinstance(n, ast.BoolOp) and isinstance(n.op, ast.And) for n in ast.walk(k.value))
    ]
    assert joined == []
    failed_text = [
        where
        for module, where, node in _nodes()
        if module == "verify.py" and isinstance(node, ast.Constant)
        and isinstance(node.value, str) and "[failed:" in node.value
    ]
    assert failed_text == ["_judged"]
    assert (SOURCE / "verify.py").read_text().count("[failed:") == 1
