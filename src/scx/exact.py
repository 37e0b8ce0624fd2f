"""Exact linear algebra over the rationals and prime fields.

Every rank, over Q or GF(p), is one column reduction of ``{row: entry}``
columns (:func:`_reduce`); dense matrices, lists of rows of Python ints,
are handed to it as columns.  Fraction-free (Bareiss) elimination to echelon
form and back-substitution compute the nullspaces, and :func:`_canonical`
puts a space given by any basis in the canonical form they return.  No
floating point; ranks are exact.
"""

from __future__ import annotations

from math import gcd

from .errors import InternalCheckError, PreconditionError

#: Default modulus for fast exact ranks: the largest prime below 2^30
#: (2^30 - 35), so that every residue is one 30-bit CPython digit.
DEFAULT_PRIME = 1_073_741_789

#: Miller-Rabin on the bases 2..41 is deterministic below this bound, which
#: is itself composite (1,287,836,182,261 x 2,575,672,364,521) and passes.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2..41: exact for n < ``PRIME_TEST_BOUND``."""
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
    """Normalize a field spec: "rational" or a prime modulus below
    ``PRIME_TEST_BOUND``, the moduli whose primality is certain."""
    if field == "rational":
        return field
    if isinstance(field, int):
        if field >= PRIME_TEST_BOUND:
            raise PreconditionError(f"modulus {field} is not below {PRIME_TEST_BOUND}")
        if not is_probable_prime(field):
            raise PreconditionError(f"{field} is not prime")
        return field
    raise PreconditionError(f"unsupported field spec {field!r}")


def _bareiss(rows):
    """Fraction-free elimination to echelon form (Bareiss 1968): (rows, pivot
    columns).  A pivot updates only the rows below it, on the later columns,
    so pivot row i keeps its entries from the step it became a pivot: its
    pivot entry is the leading minor of order i + 1, the last one the
    determinant of the pivot rows on the pivot columns.
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
        row_r = m[rank]
        lead = row_r[col]
        for i in range(rank + 1, nrows):
            row_i = m[i]
            fac = row_i[col]
            if fac == 0 and lead == prev:
                continue
            for j in range(col + 1, ncols):
                row_i[j] = (row_i[j] * lead - fac * row_r[j]) // prev
            row_i[col] = 0
        prev = lead
        pivots.append(col)
        if rank + 1 == nrows:
            break
    return m, pivots


def rank_rational(rows) -> int:
    """Rank over Q of dense integer rows by Bareiss elimination (a reference)."""
    return len(_bareiss(rows)[1])


def rank_mod(rows, p: int) -> int:
    """Rank over GF(p) of dense integer rows: :func:`_reduce` on the columns."""
    columns = [{i: x for i, x in enumerate(col) if x} for col in zip(*rows)]
    return _reduce(columns, validate_field(p))[0]


def _reduce(columns, field, limit=None):
    """(rank, ``{column: lowest row}`` of the pivots) in column order, for a
    validated ``field``: while a column's lowest (largest) row is an earlier
    pivot's, that pivot times the column's entry there is subtracted.  Over
    Q, a pivot entry other than +-1 there first scales the column, and the
    result is divided by its content.  The columns left nonzero, the pivots,
    are the first independent ones; on their lowest rows they form a
    nonsingular submatrix.

    With a ``limit``, the reduction stops at the column that takes pivot
    number ``limit`` and reads no column after it.  The rank it returns is
    the rank of the whole matrix only when the caller knows that no matrix
    it hands over has a higher rank over ``field``: an upper bound such as
    the rigidity rank bound of Asimow and Roth, which holds over Q and so
    mod p.  The saving is the columns after that pivot, so such a caller
    hands the columns it expects to be dependent last: ``rigidity._samples``
    ranks last the frame that the trivial motions leave dependent.  A Betti
    rank knows no such bound and reads every column.
    """
    p = None if field == "rational" else field
    reduced, pivots = {}, {}  # lowest row -> pivot column, scaled to 1 there mod p
    for j, col in enumerate(columns):
        col = {r: e % p for r, e in col.items() if e % p} if p else dict(col)
        while col and (low := max(col)) in reduced:
            other = reduced[low]
            fac, lead = col[low], other[low]
            scale = not p and lead not in (1, -1)
            if scale:
                col = {r: e * lead for r, e in col.items()}
            else:
                fac *= lead  # 1 mod p; over Q a unit is its own inverse
            for r, e in other.items():
                x = col.get(r, 0) - fac * e
                if p:
                    x %= p
                if x:
                    col[r] = x
                else:
                    del col[r]
            if scale and col:
                g = gcd(*col.values())
                col = {r: e // g for r, e in col.items()}
        if col:
            if p:
                inv = pow(col[low], -1, p)
                col = {r: e * inv % p for r, e in col.items()}
            reduced[low] = col
            pivots[j] = low
            if len(pivots) == limit:
                break
    return len(pivots), pivots


def right_nullspace(rows) -> list:
    """Basis of {x : A x = 0} over Q for an integer matrix A.

    Returns primitive integer vectors (content 1, first nonzero entry
    positive), one per free column of the reduced echelon form, in
    free-column order; deterministic for a fixed input.  Each is found by
    back-substitution up the echelon rows as z = det * x, with x = 1 at its
    free column and det the last pivot entry; z is integral by Cramer's
    rule, so a division that leaves a remainder raises ``InternalCheckError``.
    """
    m, pivots = _bareiss(rows)
    ncols = len(m[0]) if m else 0
    det = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = det
        for row, pc in reversed(list(zip(m, pivots))):
            total = sum(row[j] * vec[j] for j in range(pc + 1, ncols))
            vec[pc], rem = divmod(-total, row[pc])
            if rem:
                raise InternalCheckError("nullspace back-substitution left a remainder")
        basis.append(_primitive(vec))
    return basis


def _canonical(basis) -> list:
    """The basis that :func:`right_nullspace` returns for the space spanned by
    ``basis``, independent integer vectors of one length, of any matrix
    whose kernel that space is.

    A free column of such a matrix is one that depends on the columns
    before it: exactly a position where some vector of the space has its
    last nonzero entry.  An echelon from the right names those positions:
    each vector, zeroed at the positions already named, names its last
    nonzero one and is subtracted from the vectors named before it, with
    the content divided out after each step.  Each vector then is nonzero
    at its own free column and 0 at the other free columns, which fixes it
    up to scale; made primitive, the vectors come in free-column order.
    """
    named = []  # (free column, vector)
    for vec in basis:
        for col, other in named:
            if vec[col]:
                vec = _eliminate(vec, other, col)
        col = max((j for j, x in enumerate(vec) if x), default=None)
        if col is None:
            raise InternalCheckError("canonical basis given dependent vectors")
        named = [(c, _eliminate(o, vec, col) if o[col] else o) for c, o in named]
        named.append((col, vec))
    return [_primitive(vec) for _, vec in sorted(named)]


def _eliminate(vec, other, col):
    """``vec`` with ``col`` zeroed by a multiple of ``other``, content 1."""
    a, b = other[col], vec[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = [x * a - y * b for x, y in zip(vec, other)]
    g = gcd(*out) or 1
    return [x // g for x in out]


def _primitive(vec):
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)
