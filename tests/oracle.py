"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes invariants from raw facet lists or dense matrices
with the most naive method available (powerset closures, GF(2) and GF(p)
Gaussian elimination), on purpose sharing no code with the package internals
it checks.  The exceptions are :func:`rank_sparse`, the rank of sparse
columns by the package's column reduction ``exact._reduce``, which the
tests compare the other eliminations with, :func:`matrix_rank` over Q and
:func:`left_nullspace`, dense views of the package's fraction-free elimination
that the tests compare the sparse column reduction and the stress bases with,
:func:`bareiss`, the package's fraction-free elimination as first written,
which swept every column at every step, :func:`gauss_jordan_nullspace`, the
kernel read off its Gauss-Jordan form before back-substitution replaced it,
:func:`unit_pivot`, the sparse elimination that the column reduction
replaced (unit pivots chosen by how few columns touch their row, the columns
left without a unit handed to Bareiss), :func:`betti_every_column`, the
Betti memo's miss path before it ranked top-down with clearing, and
:func:`is_homology_manifold_by_links` and
:func:`is_normal_pseudomanifold_by_links`, the link-by-link predicates that
the facet-bitmask sweeps replaced: they build each face link as a complex
with the public ``SimplicialComplex.link`` and ask ``betti`` of it or
:func:`one_skeleton_connected`, a depth-first search
(:func:`components_by_search`) over its powerset closure, and
:func:`is_homology_manifold_by_faces`, the
facet-bitmask sweep over every nonempty face link that the vertex-link
recursion replaced, :func:`ball_analysis_by_sweep`, the ball analysis
as one sweep over the ball's own labels, before it was memoised by order
type, and :func:`are_isomorphic_by_labels`, the isomorphism search on
labels (a labelled adjacency, labelled facets and a label mapping) that the
search on vertex bits replaced, with the package's vertex classes and guard.  The retriangulation references at the end are the Swartz moves and
the inverse stellar move as first written, built from
``SimplicialComplex.antistar`` with the package's own record and link
helpers, each record's vertex changes stated by the reference
(:func:`record_stating`) and its predicted g-changes worked out from
labelled closures (:func:`ball_deltas`), ``swartz_all`` going through the
public single move, and the split of a link along a missing facet
(:func:`split_link_by_search`, which the single move splits with) with its
components found by the depth-first search, as
:func:`detect_join_by_search` finds the non-edge components of a join.
Last come the operations that build their result from their input's facet
masks, written on labels through the labelled constructor:
:func:`link_by_labels`, :func:`star_by_labels`,
:func:`restriction_by_labels`, :func:`skeleton_by_labels`,
:func:`join_by_labels`, :func:`stack_by_labels`,
:func:`skeleton_completion_by_search`, :func:`central_by_labels` and
:func:`connected_sum_by_labels`.

Every face set that a reference reads, its sweep order included, comes from
the powerset :func:`closure`, grouped by :func:`closure_by_dim`, and never
from ``SimplicialComplex.faces`` or ``faces_of_dim``: those are views of
the package's bitmask closure, which the references are compared with.
"""

from collections import Counter
from dataclasses import replace
from itertools import chain, combinations
from math import comb, gcd

from scx.complexes import SimplicialComplex, from_faces, is_simplex_boundary
from scx.errors import PreconditionError, TooLargeError
from scx.exact import _reduce, rank_rational, right_nullspace, validate_field
from scx.facevectors import _complex
from scx.homology import (
    PredicateResult,
    _ball_checked,
    _betti,
    _link,
    _order_type,
    betti,
    is_homology_sphere,
    is_normal_pseudomanifold,
    is_r_stacked_ball,
    skeleton_completion,
)
from scx.isomorphism import ISOMORPHISM_GUARD, IsoCertificate, _vertex_classes
from scx.retriangulate import _detect_stack_level, _record, _require_sphere_link


def closure(facets):
    """All faces of the closure of a facet list, as a set of frozensets."""
    faces = set()
    for facet in facets:
        fs = sorted(facet)
        for k in range(len(fs) + 1):
            faces.update(frozenset(c) for c in combinations(fs, k))
    return faces


def closure_by_dim(facets):
    """{k: the k-faces of the powerset closure, in vertex-tuple order} for
    k = -1..dim: what ``SimplicialComplex.faces_of_dim`` returns."""
    faces = closure(facets)
    dim = max(map(len, faces)) - 1
    return {k: sorted((f for f in faces if len(f) == k + 1), key=sorted) for k in range(-1, dim + 1)}


def face_counts(facets):
    """f-vector as a tuple (f_-1, f_0, ..., f_dim) from the powerset closure."""
    faces = closure(facets)
    dim = max(len(f) for f in faces) - 1
    counts = [0] * (dim + 2)
    for f in faces:
        counts[len(f)] += 1
    return tuple(counts)


def missing_faces(facets):
    """{k: the minimal non-faces with k + 1 vertices, as sorted tuples} for
    k = 0..f_0 - 1, by brute force: every set of vertices that is not a face
    but whose boundary lies in the closure."""
    faces = closure(facets)
    vertices = sorted(set(chain.from_iterable(facets)))
    return {
        k: [
            c
            for c in combinations(vertices, k + 1)
            if frozenset(c) not in faces and all(frozenset(c) - {v} in faces for v in c)
        ]
        for k in range(len(vertices))
    }


def components_by_search(masks):
    """The components of the bitmasks ``masks``, two joined when they share
    a bit, as the sorted unions of their masks: a depth-first search over
    the masks, each compared with every other."""
    masks = list(masks)
    seen, found = set(), []
    for start in range(len(masks)):
        if start in seen:
            continue
        seen.add(start)
        stack, union = [start], 0
        while stack:
            i = stack.pop()
            union |= masks[i]
            for j, m in enumerate(masks):
                if j not in seen and m & masks[i]:
                    seen.add(j)
                    stack.append(j)
        found.append(union)
    return sorted(found)


def graph_components(nodes, edges):
    """The components of a graph on the integers ``nodes``, each as the
    sorted list of its nodes, ordered by their least node: node v is the
    bit 1 << v, and :func:`components_by_search` joins each edge's ends."""
    masks = [1 << v for v in nodes] + [(1 << u) | (1 << v) for u, v in edges]
    found = sorted(components_by_search(masks), key=lambda c: c & -c)
    return [[v for v in range(c.bit_length()) if c >> v & 1] for c in found]


def one_skeleton_connected(cx):
    """Whether the 1-skeleton of the powerset closure is connected."""
    edges = [tuple(f) for f in closure(cx.facets) if len(f) == 2]
    return len(graph_components(cx.vertices, edges)) <= 1


def g2_from_counts(f0, f1, dim):
    d = dim + 1
    return f1 - d * f0 + d * (d + 1) // 2


def vertex_links(facets):
    """Vertex -> the facets of its link, F - {v} for each facet F through v."""
    links = {}
    for facet in facets:
        for v in facet:
            links.setdefault(v, []).append(frozenset(facet) - {v})
    return links


def h_differences(counts):
    """(1, h_1-h_0, ..., h_d-h_{d-1}) for face counts (f_-1, ..., f_{d-1}),
    expanding sum_i f_{i-1} (t-1)^(d-i) into sum_j h_j t^(d-j) term by term."""
    d = len(counts) - 1
    h = [0] * (d + 1)
    for i, f in enumerate(counts):
        for m in range(d - i + 1):  # the t^m term of (t-1)^(d-i)
            h[d - m] += f * comb(d - i, m) * (-1) ** (d - i - m)
    return (1,) + tuple(h[j] - h[j - 1] for j in range(1, d + 1))


def _at(seq, i):
    return seq[i] if i < len(seq) else 0


def link_g_sum(facets, k):
    """Both sides of the link-sum identity, sum_v g_k(lk v) and
    (k+1) g_{k+1} + (d+1-k) g_k, with every link built from the facets."""
    eg = h_differences(face_counts(facets))
    d = len(eg) - 1
    lhs = sum(_at(h_differences(face_counts(lk)), k) for lk in vertex_links(facets).values())
    return lhs, (k + 1) * _at(eg, k + 1) + (d + 1 - k) * _at(eg, k)


def link_g2s(facets):
    """g2 of the complex and the (v, g2 of lk v) pairs in vertex order."""

    def g2(counts):
        return g2_from_counts(_at(counts, 1), _at(counts, 2), len(counts) - 2)

    links = vertex_links(facets)
    return g2(face_counts(facets)), tuple((v, g2(face_counts(links[v]))) for v in sorted(links))


def betti_gf2(facets):
    """Reduced GF(2) Betti numbers (b_-1, ..., b_dim) by naive elimination."""
    by_dim = closure_by_dim(facets)
    dim = max(by_dim)

    def rank(k):
        rows = by_dim.get(k - 1, [])
        cols = by_dim.get(k, [])
        if not rows or not cols:
            return 0
        index = {f: i for i, f in enumerate(rows)}
        mat = []
        for col in cols:
            vec = 0
            for v in col:
                vec |= 1 << index[col - {v}]
            mat.append(vec)
        r = 0
        for bit in range(len(rows)):
            pivot = next((i for i in range(r, len(mat)) if mat[i] >> bit & 1), None)
            if pivot is None:
                continue
            mat[r], mat[pivot] = mat[pivot], mat[r]
            for i in range(len(mat)):
                if i != r and mat[i] >> bit & 1:
                    mat[i] ^= mat[r]
            r += 1
        return r

    ranks = {k: rank(k) for k in range(dim + 2)}
    return tuple(
        len(by_dim.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(-1, dim + 1)
    )


def betti_every_column(masks, field="rational"):
    """Reduced Betti numbers of the order type ``masks`` as ``homology._betti``
    computed them before it ranked top-down with clearing: the facets rebuilt
    as frozensets, their powerset closure (:func:`closure_by_dim`), each
    column's rows found by hashing ``face - {v}``, and every column of every
    d_k ranked by :func:`unit_pivot`.  The guard and the certificate are left
    out."""
    by_dim = closure_by_dim(
        frozenset(i for i in range(m.bit_length()) if m >> i & 1) for m in masks
    )
    sizes = [len(faces) for faces in by_dim.values()]
    ranks = [0]  # ranks[k + 1] = rank d_k, with d_{-1} and d_{dim+1} zero
    for k in range(max(by_dim) + 1):
        index = {f: i for i, f in enumerate(by_dim[k - 1])}
        columns = [
            {index[face - {v}]: 1 - 2 * (j & 1) for j, v in enumerate(sorted(face))}
            for face in by_dim[k]
        ]
        ranks.append(unit_pivot(columns, field)[0])
    ranks.append(0)
    return tuple(sizes[j] - ranks[j] - ranks[j + 1] for j in range(len(sizes)))


def unit_pivot(columns, field):
    """(rank, ``{column: row}`` of the unit pivots) of ``{row: int}`` columns
    over Q or GF(``field``), as ``exact._unit_pivot`` computed them before
    the column reduction replaced it.

    Pivots are units only (+-1 over Q, nonzero over GF(p)); of a column's
    units, the row fewest columns touch is taken, and the pivot row is
    cleared off every other column.  Columns left with no unit go to
    :func:`rank_rational` on the unpivoted rows.
    """
    p = None if field == "rational" else field
    cols = [{r: e % p for r, e in c.items() if e % p} if p else dict(c) for c in columns]
    touching = {}  # row -> indices of the columns with an entry in it
    for j, col in enumerate(cols):
        for r in col:
            touching.setdefault(r, set()).add(j)
    stuck, pivoted = [], {}
    for j, col in enumerate(cols):
        units = [r for r, e in col.items() if p or e in (1, -1)]
        if not units:
            stuck.append(col)
            continue
        piv = pivoted[j] = min(units, key=lambda r: len(touching[r]))
        inv = col.pop(piv) if p is None else pow(col.pop(piv), -1, p)
        if p:  # scaled to pivot 1, each factor below is the entry itself, < p
            col, inv = {r: e * inv % p for r, e in col.items()}, 1
        for r in col:
            touching[r].discard(j)
        for i in touching.pop(piv) - {j}:
            other = cols[i]
            fac = other.pop(piv) * inv
            for r, e in col.items():
                x = other.get(r, 0) - fac * e
                if p:
                    x %= p
                if x:
                    other[r] = x
                    touching[r].add(i)
                else:
                    del other[r]
                    touching[r].discard(i)
    rows = sorted({r for col in stuck for r in col})
    rest = rank_rational([[col.get(r, 0) for col in stuck] for r in rows]) if rows else 0
    return len(pivoted) + rest, pivoted


def rank_sparse(columns, field="rational"):
    """Rank over a validated field of ``{row: nonzero int}`` columns (not modified)."""
    return _reduce(columns, validate_field(field))[0]


def rank_gfp(rows, p):
    """Rank over GF(p) of dense integer rows by Gauss-Jordan elimination."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c] * inv % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def bareiss(rows, reduce_above):
    """``exact._bareiss`` as first written: every step sweeps the whole row,
    the pivot columns already cleared included (Gauss-Jordan mode) or every
    later column (echelon mode)."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        first = 0 if reduce_above else col + 1
        for i in range(0 if reduce_above else rank + 1, nrows):
            fac = m[i][col]
            if (fac == 0 and lead == prev) or i == rank:
                continue
            row_i, row_r = m[i], m[rank]
            for j in range(first, ncols):
                row_i[j] = (row_i[j] * lead - fac * row_r[j]) // prev
            row_i[col] = 0
        prev = lead
        pivots.append(col)
        if rank + 1 == nrows:
            break
    return m, pivots


def gauss_jordan_nullspace(rows):
    """``exact.right_nullspace`` before back-substitution: each kernel vector
    read off the Gauss-Jordan form of :func:`bareiss`, where every pivot
    entry is the determinant, as det at its free column and minus the free
    column's entry in each pivot row, then made primitive."""
    m, pivots = bareiss(rows, reduce_above=True)
    ncols = len(m[0]) if m else 0
    det = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = det
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        content = gcd(*vec)
        if next(x for x in vec if x) < 0:
            content = -content
        basis.append(tuple(x // content for x in vec))
    return basis


def matrix_rank(rows, field="rational"):
    """Rank of dense integer rows over Q (fraction-free) or GF(field)."""
    return rank_rational(rows) if field == "rational" else rank_gfp(rows, field)


def left_nullspace(rows):
    """Basis of {w : w A = 0} over Q: the right kernel of the transpose."""
    return right_nullspace(list(zip(*rows)))


def maximal(faces):
    """Inclusion-maximal members of a family of frozensets, each compared with
    every member kept so far (quadratic); {frozenset()} if none is nonempty."""
    kept = []
    for f in sorted(set(faces), key=len, reverse=True):
        if not any(f < g for g in kept):
            kept.append(f)
    return frozenset(kept or [frozenset()])


def macaulay_pseudopower_linear(a, i):
    """a^<i> from the greedy binomial expansion of a, each top found by
    stepping up one at a time."""
    rem, idx, total = a, i, 0
    while rem > 0 and idx >= 1:
        top = idx
        while comb(top + 1, idx) <= rem:
            top += 1
        total += comb(top + 1, idx + 1)
        rem -= comb(top, idx)
        idx -= 1
    return total


def detect_join_by_search(cx):
    """``detect_join`` as first written: the sides are unions of the
    components of the non-edge graph, tried in the same order, and each is
    checked by :func:`is_join_partition`, with no guard."""
    verts = sorted(cx.vertices)
    if len(verts) < 2:
        return None
    faces = closure(cx.facets)
    non_edges = [e for e in combinations(verts, 2) if frozenset(e) not in faces]
    groups = graph_components(verts, non_edges)
    c = len(groups)
    if c < 2:
        return None
    for choice in range(1, 2 ** (c - 1)):
        side_a, side_b = set(groups[0]), set()
        for i in range(c - 1):
            (side_b if choice >> i & 1 else side_a).update(groups[i + 1])
        if is_join_partition(cx.facets, side_a, side_b):
            return tuple(sorted(side_a)), tuple(sorted(side_b))
    return None


def is_join_partition(facets, side_a, side_b):
    """Check facets == {a | b} over the restrictions' facet sets."""
    facets = {frozenset(f) for f in facets}
    a, b = frozenset(side_a), frozenset(side_b)
    fa = maximal(f & a for f in facets)
    fb = maximal(f & b for f in facets)
    return {x | y for x in fa for y in fb} == facets


def are_isomorphic_adjacency(facets1, facets2):
    """A vertex bijection sending facets1 onto facets2, or None.

    Vertices are split by degree, link face counts and neighbour classes, a
    partial bijection is extended under adjacency pruning only, and each
    complete bijection is compared with facets2 as a whole.  Nothing prunes
    on neighborly inputs, so the time is factorial there: keep it to small
    complexes.
    """
    facets1 = {frozenset(f) for f in facets1}
    facets2 = {frozenset(f) for f in facets2}
    if face_counts(facets1) != face_counts(facets2):
        return None

    def adjacency(facets):
        adj = {v: set() for f in facets for v in f}
        for f in facets:
            for u, v in combinations(f, 2):
                adj[u].add(v)
                adj[v].add(u)
        return adj

    def classes(facets, adj):
        through = {v: [0] * (max(map(len, facets)) + 1) for v in adj}
        for face in closure(facets):
            for v in face:
                through[v][len(face)] += 1
        base = {v: (len(adj[v]), tuple(through[v])) for v in adj}
        return {v: (base[v], tuple(sorted(base[u] for u in adj[v]))) for v in adj}

    adj1, adj2 = adjacency(facets1), adjacency(facets2)
    cls1, cls2 = classes(facets1, adj1), classes(facets2, adj2)
    if sorted(cls1.values()) != sorted(cls2.values()):
        return None
    candidates = {v: sorted(u for u in adj2 if cls2[u] == cls1[v]) for v in adj1}
    order = []
    remaining = set(adj1)
    while remaining:
        pool = [v for v in remaining if adj1[v] & set(order)] or list(remaining)
        v = min(pool, key=lambda v: (len(candidates[v]), v))
        order.append(v)
        remaining.discard(v)
    mapping = {}

    def extend(idx):
        if idx == len(order):
            return {frozenset(mapping[v] for v in f) for f in facets1} == facets2
        v = order[idx]
        for u in candidates[v]:
            if u in mapping.values():
                continue
            if all((w in adj1[v]) == (mapping[w] in adj2[u]) for w in mapping):
                mapping[v] = u
                if extend(idx + 1):
                    return True
                del mapping[v]
        return False

    return dict(mapping) if extend(0) else None


def are_isomorphic_by_labels(cx1: SimplicialComplex, cx2: SimplicialComplex) -> IsoCertificate:
    """Search for a vertex bijection sending facets to facets."""
    cx1, cx2, none = _complex(cx1), _complex(cx2), IsoCertificate(None)
    (cls1, _), (cls2, nbrs2) = _vertex_classes(cx1), _vertex_classes(cx2)
    if sorted(cls1.values()) != sorted(cls2.values()):  # e.g. the facet-size totals differ
        return none
    if not cx1.vertices:
        return IsoCertificate({})
    adj1 = cx1.adjacency()
    candidates = {
        v: sorted(u for u in cx2.vertices if cls2[u] == cls1[v])
        for v in cx1.vertices
    }
    # rarest class first, then prefer vertices adjacent to already-placed ones.
    # closing[i] holds the facets whose last vertex is order[i]; the map is
    # injective and the facet-size totals agree, so once every facet lands on
    # a facet of cx2, the image of cx1 is all of cx2
    order, closing = [], []
    remaining = set(cx1.vertices)
    while remaining:
        placed = set(order)
        pool = [v for v in remaining if adj1[v] & placed] or list(remaining)
        v = min(pool, key=lambda v: (len(candidates[v]), v))
        order.append(v)
        remaining.discard(v)
        closing.append([f for f in cx1.facets if v in f and remaining.isdisjoint(f)])
    bit = cx2._masks[0]  # nbrs2 is closed: u's own bit is never in ``used`` below
    mapping, used, nodes = {}, 0, 0
    # stack[i] yields order[i]'s untried images; no recursion, so no depth limit
    stack = [iter(candidates[order[0]])]
    while stack:
        i = len(stack) - 1
        v = order[i]
        if v in mapping:  # back from a dead end
            used ^= bit[mapping.pop(v)]
        # the placed neighbours of v's image must be the images of v's: this
        # prunes long before a facet closes when cx1 is not neighborly
        want = sum(bit[mapping[w]] for w in adj1[v] if w in mapping)
        for u in stack[-1]:
            b = bit[u]
            if used & b:
                continue
            nodes += 1
            if nodes > ISOMORPHISM_GUARD:
                raise TooLargeError(
                    f"search exceeds the isomorphism guard ({ISOMORPHISM_GUARD} nodes)"
                )
            if nbrs2[b] & used != want:
                continue
            mapping[v] = u
            if all(frozenset(map(mapping.get, f)) in cx2.facets for f in closing[i]):
                break
            del mapping[v]
        else:
            stack.pop()
            continue
        used |= b
        if i + 1 == len(order):
            return IsoCertificate(dict(mapping))
        stack.append(iter(candidates[order[i + 1]]))
    return none


def is_homology_manifold_by_links(cx, field="rational"):
    """``is_homology_manifold`` with one link complex built per face, faces
    visited by their smallest vertex first."""
    n, by_dim = cx.dim, closure_by_dim(cx.facets)
    faces = chain.from_iterable(by_dim[k] for k in range(n + 1))
    for face in sorted(faces, key=min):
        if not betti(cx.link(face), field).is_sphere(n - len(face)):
            return PredicateResult(False, (min(face),), "vertex link is not a homology sphere")
    return PredicateResult(True)


def face_links(cx, faces):
    """(face, its link's facets as ``complexes._link`` reads them, bitmasks over
    the complex's sorted vertices) for each face of ``faces``, in their order."""
    bit, masks = cx._masks
    return [(face, _link(masks, sum(bit[v] for v in face))) for face in faces]


def is_homology_manifold_by_faces(cx, field="rational"):
    """``is_homology_manifold`` as one sweep over every nonempty face link,
    read as facet bitmasks and looked up in the Betti memo by the key
    ``betti`` uses, its order type; faces are visited by their smallest
    vertex first."""
    n, field, by_dim = cx.dim, validate_field(field), closure_by_dim(cx.facets)
    faces = chain.from_iterable(by_dim[k] for k in range(n + 1))
    for face, link in face_links(cx, sorted(faces, key=min)):
        if not _betti(_order_type(link), field).is_sphere(n - len(face)):
            return PredicateResult(False, (min(face),), "vertex link is not a homology sphere")
    return PredicateResult(True)


def ball_analysis_by_sweep(cx, field="rational", check=True):
    """``homology._ball_analysis`` with no memo of its own: one sweep over the
    face links of ``cx`` in its own labels, each link's Betti numbers looked
    up by the key ``betti`` uses, its order type."""
    d = cx.dim
    field = validate_field(field)
    trivial = []
    verdict = PredicateResult(True)
    faces = chain.from_iterable(closure_by_dim(cx.facets).values())
    for face, link in face_links(cx, faces):
        profile = _betti(_order_type(link), field)
        if profile.is_trivial():
            trivial.append(face)
        elif verdict.ok and not profile.is_sphere(d - len(face)):
            verdict = PredicateResult(
                False, tuple(sorted(face)), "link is neither ball- nor sphere-like"
            )
    bd = from_faces(trivial)
    if check and verdict:
        if frozenset() not in trivial:
            verdict = PredicateResult(False, (), "complex does not have ball homology")
        elif len(closure(bd.facets)) != len(trivial):  # the closure contains the list
            verdict = PredicateResult(False, None, "boundary faces are not closed downward")
        elif d > 0 and bd.dim != d - 1:
            verdict = PredicateResult(False, None, "boundary has wrong dimension")
        elif not (sphere := is_homology_sphere(bd, field)):
            verdict = PredicateResult(False, sphere.witness, "boundary is not a homology sphere")
    return verdict, bd, frozenset(closure(cx.facets) - closure(bd.facets))


def is_normal_pseudomanifold_by_links(cx):
    """``is_normal_pseudomanifold`` with one link complex built per face of
    dimension below n - 1, each tested, as the complex is, with
    :func:`one_skeleton_connected`."""
    n = cx.dim
    if n < 1:
        return PredicateResult(False, (), "dimension must be at least 1")
    if not cx.is_pure():
        size = min(map(len, cx.facets))
        smallest = min(tuple(sorted(f)) for f in cx.facets if len(f) == size)
        return PredicateResult(False, smallest, "complex is not pure")
    if not one_skeleton_connected(cx):
        return PredicateResult(False, (), "complex is not connected")
    ridge_count = Counter(facet - {v} for facet in cx.facets for v in facet)
    for ridge, count in sorted(ridge_count.items(), key=lambda kv: sorted(kv[0])):
        if count != 2:
            return PredicateResult(False, tuple(sorted(ridge)), f"ridge lies in {count} facets")
    by_dim = closure_by_dim(cx.facets)
    for k in range(0, n - 1):
        for face in by_dim[k]:
            if not one_skeleton_connected(cx.link(face)):
                return PredicateResult(False, tuple(sorted(face)), "face link is not connected")
    return PredicateResult(True)


def record_stating(kind, cx, out, deltas, new_vertices, removed_vertices, **fields):
    """The package's ``_record`` with the new and removed vertices that a
    reference states, in place of those ``_record`` reads off the complexes."""
    record = _record(kind, cx, out, deltas, **fields)
    return replace(record, new_vertices=new_vertices, removed_vertices=removed_vertices)


def ball_deltas(d, sphere, interior, sign):
    """The predicted g-changes of a retriangulation that adds (sign 1) or
    removes (sign -1) a cone over ``sphere`` through a ball with the faces
    ``interior``: (i, sign * g_{i-1}(sphere)) for i up to (d+1)/2 and the
    least dimension of an interior face (d with none), each g-entry an
    h-difference of the sphere's powerset face counts."""
    m = min((len(f) - 1 for f in interior), default=d)
    eg = h_differences(face_counts(sphere.facets))
    return tuple((i, sign * _at(eg, i - 1)) for i in range(1, min((d + 1) // 2, m) + 1))


def inverse_stellar_by_antistar(cx, v, r=None, field="rational", check=True):
    """``inverse_stellar`` with the output glued onto the antistar of v."""
    if v not in cx.vertices:
        raise PreconditionError(f"vertex {v} is not in the complex")
    link = cx.link([v])
    d = cx.dim
    if check and link.dim != d - 1:
        raise PreconditionError(f"link of {v} has dimension {link.dim}, not {d - 1}")
    if check:
        _require_sphere_link(link, v, field)
    if r is None:
        r = _detect_stack_level(link, d)
    if not 2 <= r <= (d + 1) // 2:
        raise PreconditionError(f"stackedness level r={r} outside 2..(d+1)/2")
    filled = skeleton_completion(link, r - 1)
    boundary, interior, _ = _ball_checked(filled, field, check)
    if check and boundary != link:
        raise PreconditionError("link completion does not have the link as boundary")
    if check and not (stacked := is_r_stacked_ball(filled, r - 1, field, check=False)):
        raise PreconditionError(
            f"link completion is {stacked.min_stackedness}-stacked, not {r - 1}-stacked"
        )
    faces = closure(cx.facets)
    for f in sorted(interior, key=sorted):
        if f in faces:
            raise PreconditionError(
                f"interior face {tuple(sorted(f))} of the completion is already present"
            )
    out = SimplicialComplex(cx.antistar(v).facets | filled.facets)
    return out, record_stating(
        "inverse-stellar", cx, out, ball_deltas(d, link, interior, -1),
        new_vertices=(), removed_vertices=(v,), ball_used=filled,
    )


def swartz_operation_by_antistar(cx, v, tau, field="rational", check=True):
    """``swartz_operation`` with the output glued onto the antistar of v."""
    t = frozenset(tau)
    if v not in cx.vertices:
        raise PreconditionError(f"vertex {v} is not in the complex")
    if t in closure(cx.facets) or not t <= cx.vertices:
        raise PreconditionError(f"{tuple(sorted(t))} must be a missing face of the complex")
    link = cx.link([v])
    if check:
        pm = is_normal_pseudomanifold(cx)
        if not pm:
            raise PreconditionError(
                f"input is not a normal pseudomanifold ({pm.reason}; witness {pm.witness})"
            )
        _require_sphere_link(link, v, field)
    faces = closure(link.facets)
    if len(t) != link.dim + 1 or t in faces or any(t - {u} not in faces for u in t):
        raise PreconditionError(f"{tuple(sorted(t))} is not a missing facet of the link of {v}")
    new_facets = set(cx.antistar(v).facets)
    fresh = max(cx.vertices) + 1
    new_vertices, notes = [], []
    for sphere_cx in split_link_by_search(link, t):
        if is_simplex_boundary(sphere_cx):
            new_facets.add(frozenset(sphere_cx.vertices))
            notes.append("filled missing facet")
        else:
            cone = fresh
            fresh += 1
            new_vertices.append(cone)
            new_facets |= {facet | {cone} for facet in sphere_cx.facets}
            notes.append(f"coned with vertex {cone}")
    out = SimplicialComplex(new_facets)
    return out, record_stating(
        "swartz", cx, out, ((2, -1),) if cx.dim >= 3 else (),
        new_vertices=tuple(new_vertices), removed_vertices=(v,), steps=1, notes=tuple(notes),
    )


def split_link_by_search(link, tau):
    """``_split_link_along`` as first written: the link's facets in
    lexicographic order, two adjacent when they share a ridge outside tau,
    and the two components, each with tau added, in order of their first
    facet."""
    t = frozenset(tau)
    facets = sorted(link.facets, key=sorted)
    adjacent = [
        (i, j)
        for i, j in combinations(range(len(facets)), 2)
        if len(facets[i]) == len(facets[j]) == len(facets[i] & facets[j]) + 1
        and not facets[i] & facets[j] <= t
    ]
    groups = graph_components(range(len(facets)), adjacent)
    if len(groups) != 2:
        raise PreconditionError(
            f"removing the facet boundary splits the link into {len(groups)} parts, not 2"
        )
    return [SimplicialComplex([facets[i] for i in group] + [t]) for group in groups]


def swartz_all_by_operation(cx, v, field="rational", check=True):
    """``swartz_all`` through :func:`swartz_operation_by_antistar`, one
    record per step, with the whole input checked only at the first move;
    v is recorded as removed only if a move was made."""
    if cx.dim < 3:
        raise PreconditionError("iterated operation needs dimension >= 3")
    if v not in cx.vertices:
        raise PreconditionError(f"vertex {v} is not in the complex")
    current, queue, steps = cx, [v], 0
    skipped, cone_vertices, combined_notes = [], [], []
    while queue:
        w = queue.pop(0)
        if w not in current.vertices:
            continue
        link = current.link([w])
        chosen, faces = None, closure(current.facets)
        for t in [frozenset(f) for f in link.missing_faces(link.dim)]:
            if t in faces:
                skipped.append(tuple(sorted(t)))
            else:
                chosen = t
                break
        if chosen is None:
            continue
        if check and steps:
            _require_sphere_link(link, w, field)
        current, rec = swartz_operation_by_antistar(
            current, w, chosen, field, check=check and not steps
        )
        steps += 1
        combined_notes.extend(rec.notes)
        cone_vertices.extend(rec.new_vertices)
        queue.extend(rec.new_vertices)
    return current, record_stating(
        "swartz", cx, current, ((2, -steps),),
        new_vertices=tuple(w for w in cone_vertices if w in current.vertices),
        removed_vertices=(v,) if steps else (), steps=steps,
        notes=tuple(combined_notes + [f"skipped {s}" for s in sorted(set(skipped))]),
    )


# -- label-built references for the operations built from facet masks ------


def link_by_labels(cx, face):
    """``SimplicialComplex.link`` as first written: the facets through the
    face, less the face, through the labelled constructor."""
    f = frozenset(face)
    return SimplicialComplex(facet - f for facet in cx.facets if f <= facet)


def star_by_labels(cx, face):
    """``SimplicialComplex.star`` as first written: the facets through the face."""
    f = frozenset(face)
    return SimplicialComplex(facet for facet in cx.facets if f <= facet)


def restriction_by_labels(cx, verts):
    """``SimplicialComplex.restriction`` as first written: each facet cut to ``verts``."""
    w = frozenset(verts)
    return SimplicialComplex(facet & w for facet in cx.facets)


def skeleton_by_labels(cx, i):
    """The faces of the powerset closure with at most i + 1 vertices."""
    return SimplicialComplex(f for f in closure(cx.facets) if len(f) <= i + 1)


def join_by_labels(cx1, cx2):
    """``join`` as first written: every union of a facet of each, the second
    factor's labels shifted above the first's."""
    shift = max(cx1.vertices, default=-1) + 1
    return SimplicialComplex(
        f1 | frozenset(v + shift for v in f2) for f1 in cx1.facets for f2 in cx2.facets
    )


def stack_by_labels(cx, facet):
    """``stack_over_facet`` as first written: the facet replaced by the cone
    from the vertex max(V) + 1 over its ridges."""
    f, w = frozenset(facet), max(cx.vertices) + 1
    return SimplicialComplex((cx.facets - {f}) | {(f - {v}) | {w} for v in f})


def skeleton_completion_by_search(cx, i):
    """``skeleton_completion`` by a search on labels: every vertex set whose
    subsets of i + 1 vertices are all faces of the powerset closure, grown
    one vertex at a time from the faces of i + 1 vertices, added to the
    facets."""
    faces = closure(cx.facets)
    level = {f for f in faces if len(f) == i + 1}
    found = set(cx.facets)
    while level:
        level = {
            f | {v}
            for f in level
            for v in cx.vertices - f
            if all(frozenset(s) | {v} in faces for s in combinations(f, i))
        }
        found |= level
    return SimplicialComplex(found)


def central_by_labels(cx, ball, field="rational", check=True):
    """``central_retriangulation`` as first written: the ball's facets
    replaced by the cone from the vertex max(V) + 1 over its boundary's.  The
    ball's facets are tested in vertex-tuple order, so the least absent one
    is named, and the record states the ball's vertices off its boundary as
    removed."""
    if ball.dim != cx.dim:
        raise PreconditionError(
            f"ball dimension {ball.dim} differs from complex dimension {cx.dim}"
        )
    faces = closure(cx.facets)
    for facet in sorted(ball.facets, key=sorted):
        if facet not in faces:
            raise PreconditionError(
                f"ball facet {tuple(sorted(facet))} is not a face of the complex"
            )
    boundary, interior, _ = _ball_checked(ball, field, check)
    u = max(cx.vertices) + 1
    out = SimplicialComplex((cx.facets - ball.facets) | {f | {u} for f in boundary.facets})
    return out, record_stating(
        "central", cx, out, ball_deltas(cx.dim, boundary, interior, 1),
        new_vertices=(u,), removed_vertices=tuple(sorted(ball.vertices - boundary.vertices)),
        ball_used=ball,
    )


def connected_sum_by_labels(cx1, facet1, cx2, facet2, matching=None):
    """``connected_sum`` as first written: cx2 relabelled through the
    matching, its other vertices above max(V(cx1)) in sorted order, and the
    glued facet deleted from both."""
    f1, f2 = frozenset(facet1), frozenset(facet2)
    if f1 not in cx1.facets:
        raise PreconditionError(f"{tuple(sorted(f1))} is not a facet of the first complex")
    if f2 not in cx2.facets:
        raise PreconditionError(f"{tuple(sorted(f2))} is not a facet of the second complex")
    if len(f1) != len(f2) or not f1:
        raise PreconditionError("glued facets must be nonempty and of equal dimension")
    if matching is None:
        matching = dict(zip(sorted(f1), sorted(f2)))
    if set(matching) != set(f1) or set(matching.values()) != set(f2):
        raise PreconditionError("matching must be a bijection between the two facets")
    relabel = {v2: v1 for v1, v2 in matching.items()}
    fresh = max(cx1.vertices) + 1
    for v in sorted(cx2.vertices - f2):
        relabel[v] = fresh
        fresh += 1
    mapped = {frozenset(relabel[v] for v in facet) for facet in cx2.facets}
    return SimplicialComplex((cx1.facets - {f1}) | (mapped - {f1}))
