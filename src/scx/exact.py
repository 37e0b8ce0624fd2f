"""Exact linear algebra over the rationals and prime fields.

Dense matrices are lists of rows of Python ints, sharing one fraction-free
elimination over Q; sparse boundary matrices are ``{row: entry}`` columns,
ranked by unit-pivot elimination.  No floating point; ranks are exact.
"""

from __future__ import annotations

from math import gcd

from .errors import PreconditionError

#: Mersenne prime used as the default modulus for fast exact ranks.
DEFAULT_PRIME = 2**61 - 1


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (covers all usable moduli)."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_field(field) -> object:
    """Normalize a field spec: "rational" or a prime modulus."""
    if field == "rational":
        return field
    if isinstance(field, int):
        if not is_probable_prime(field):
            raise PreconditionError(f"{field} is not prime")
        return field
    raise PreconditionError(f"unsupported field spec {field!r}")


def _bareiss(rows, reduce_above: bool):
    """Fraction-free elimination (Bareiss 1968); returns (rows, pivot columns).

    With ``reduce_above`` each pivot also clears the rows above it, across the
    whole row (Gauss-Jordan), and every pivot entry ends up equal to the last.
    """
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


def rank_rational(rows) -> int:
    """Rank over Q of an integer matrix via Bareiss fraction-free elimination."""
    return len(_bareiss(rows, reduce_above=False)[1])


def rank_mod(rows, p: int) -> int:
    """Rank over GF(p) by ordinary Gaussian elimination."""
    m = [[x % p for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        row_r = m[rank]
        for j in range(col, ncols):
            row_r[j] = row_r[j] * inv % p
        for i in range(rank + 1, nrows):
            fac = m[i][col]
            if fac:
                row_i = m[i]
                for j in range(col, ncols):
                    row_i[j] = (row_i[j] - fac * row_r[j]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_unit_pivot(columns, field="rational") -> int:
    """Rank over Q or GF(p) of ``{row: nonzero int}`` columns (not modified).

    Pivots are units only (+-1 over Q, nonzero over GF(p)), so entries stay
    integers; of a column's units, the row fewest columns touch is taken.
    Columns left with no unit go to ``rank_rational`` on the unpivoted rows.
    """
    p = None if field == "rational" else field
    cols = [{r: e % p for r, e in c.items() if e % p} if p else dict(c) for c in columns]
    touching = {}  # row -> indices of the columns with an entry in it
    for j, col in enumerate(cols):
        for r in col:
            touching.setdefault(r, set()).add(j)
    stuck = []
    for j, col in enumerate(cols):
        units = [r for r, e in col.items() if p or e in (1, -1)]
        if not units:
            stuck.append(col)
            continue
        piv = min(units, key=lambda r: len(touching[r]))
        inv = col.pop(piv) if p is None else pow(col.pop(piv), p - 2, p)
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
    return len(cols) - len(stuck) + rest


def matrix_rank(rows, field="rational") -> int:
    field = validate_field(field)
    if field == "rational":
        return rank_rational(rows)
    return rank_mod(rows, field)


def right_nullspace(rows) -> list:
    """Basis of {x : A x = 0} over Q for an integer matrix A.

    Returns primitive integer vectors (content 1, first nonzero entry
    positive), one per free column of the reduced echelon form, in
    free-column order; deterministic for a fixed input.
    """
    m, pivots = _bareiss(rows, reduce_above=True)
    ncols = len(m[0]) if m else 0
    det = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = det
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(_primitive(vec))
    return basis


def left_nullspace(rows) -> list:
    """Basis of {w : w A = 0}; the left kernel of A."""
    return right_nullspace(list(zip(*rows)))


def _primitive(vec):
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)
