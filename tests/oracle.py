"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes invariants from raw facet lists or dense matrices
with the most naive method available (powerset closures, GF(2) and GF(p)
Gaussian elimination), on purpose sharing no code with the package internals
it checks.
"""

from itertools import combinations
from math import comb


def closure(facets):
    """All faces of the closure of a facet list, as a set of frozensets."""
    faces = set()
    for facet in facets:
        fs = sorted(facet)
        for k in range(len(fs) + 1):
            faces.update(frozenset(c) for c in combinations(fs, k))
    return faces


def face_counts(facets):
    """f-vector as a tuple (f_-1, f_0, ..., f_dim) from the powerset closure."""
    faces = closure(facets)
    dim = max(len(f) for f in faces) - 1
    counts = [0] * (dim + 2)
    for f in faces:
        counts[len(f)] += 1
    return tuple(counts)


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
    faces = closure(facets)
    dim = max(len(f) for f in faces) - 1
    by_dim = {k: sorted((f for f in faces if len(f) == k + 1), key=sorted)
              for k in range(-1, dim + 1)}

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
