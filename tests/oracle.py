"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes invariants from raw facet lists or dense matrices
with the most naive method available (powerset closures, GF(2) and GF(p)
Gaussian elimination), on purpose sharing no code with the package internals
it checks.
"""

from itertools import combinations


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


def is_join_partition(facets, side_a, side_b):
    """Check facets == {a | b} over the restrictions' facet sets."""
    facets = {frozenset(f) for f in facets}
    a, b = frozenset(side_a), frozenset(side_b)

    def maximal(sets):
        sets = set(sets)
        return {s for s in sets if not any(s < t for t in sets)}

    fa = maximal(f & a for f in facets)
    fb = maximal(f & b for f in facets)
    return {x | y for x in fa for y in fb} == facets
