"""Face-count vectors (f, h, g), the Macaulay pseudopower and M-sequences.

Conventions: for a complex of dimension ``dim`` set d = dim + 1.  The
f-vector lists f_{-1}..f_{d-1}, the h-vector h_0..h_d is defined by

    sum_j h_j * t^(d-j)  =  sum_i f_{i-1} * (t-1)^(d-i),

and g_0 = 1, g_i = h_i - h_{i-1}.  The official g-vector stops at
floor(d/2); ``extended_g`` exposes the h-differences all the way up to d,
which several summation identities need.  Impure complexes are accepted
(with d = dim + 1) and flagged in the result.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import comb

from .complexes import SimplicialComplex, _complex
from .errors import InternalCheckError, MalformedInputError, PreconditionError, _index


def _entry(entries: tuple, i: int) -> int:
    """``entries[i]``, or 0 for an i outside the tuple: the one rule by which
    the f-, h- and g-vectors, the h-differences and the Betti numbers read
    past their ends, as g_{i-1}(boundary) does in Lemmas 3.3 and 3.6.  The
    public readers refuse a non-integer index first (:func:`errors._index`)."""
    return entries[i] if 0 <= i < len(entries) else 0


@dataclass(frozen=True)
class FVector:
    entries: tuple  # entries[i] = f_{i-1}
    impure: bool = False

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, k: int) -> int:
        """f_k, with k from -1 to d-1; zero outside that range."""
        return _entry(self.entries, _index(k, "f-vector index") + 1)


@dataclass(frozen=True)
class HVector:
    entries: tuple  # entries[j] = h_j, j = 0..d
    impure: bool = False

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, j: int) -> int:
        return _entry(self.entries, _index(j, "h-vector index"))


@dataclass(frozen=True)
class GVector:
    entries: tuple  # entries[i] = g_i, i = 0..floor(d/2)
    d: int = 0
    impure: bool = False

    def __getitem__(self, i: int) -> int:
        return _entry(self.entries, _index(i, "g-vector index"))


def f_vector(cx: SimplicialComplex) -> FVector:
    """Exact face counts from the bitmask closure (``n_faces``)."""
    cx = _complex(cx)
    entries = tuple(cx.n_faces(k) for k in range(-1, cx.dim + 1))
    return FVector(entries, impure=not cx.is_pure())


def _link_f_vectors(cx: SimplicialComplex) -> dict:
    """Vertex v -> the f-vector entries of lk(v), read off the bitmask
    closure: each face with k + 1 vertices through v is a (k-1)-face of
    lk(v), so entry k counts the faces of that size whose mask has v's bit."""
    bit, by_size = cx._masks[0], cx._mask_closure()[0]
    counts = [[] for _ in bit]
    for group in by_size[1:]:
        tally = [0] * len(bit)
        for m in group:
            while m:
                low = m & -m
                tally[low.bit_length() - 1] += 1
                m ^= low
        for through, t in zip(counts, tally):
            if t:
                through.append(t)
    return dict(zip(bit, map(tuple, counts)))


def h_from_f(f: FVector) -> HVector:
    if not isinstance(f, FVector):
        raise MalformedInputError(f"expected an FVector, got {f!r}")
    d = f.d
    entries = tuple(
        sum((-1) ** (j - i) * comb(d - i, j - i) * f.entries[i] for i in range(j + 1))
        for j in range(d + 1)
    )
    return HVector(entries, impure=f.impure)


def f_from_h(h: HVector) -> FVector:
    if not isinstance(h, HVector):
        raise MalformedInputError(f"expected an HVector, got {h!r}")
    d = h.d
    entries = tuple(
        sum(comb(d - i, j - i) * h.entries[i] for i in range(j + 1)) for j in range(d + 1)
    )
    return FVector(entries, impure=h.impure)


def h_vector(cx: SimplicialComplex) -> HVector:
    return h_from_f(f_vector(cx))


def _g_direct(f: FVector, j: int) -> int:
    # alternating-binomial form of g_j straight from the f-vector
    d = f.d
    return sum((-1) ** (j - i) * comb(d + 1 - i, j - i) * f.entries[i] for i in range(j + 1))


def g_vector(cx: SimplicialComplex) -> GVector:
    """g_0..g_{floor(d/2)}; the h-difference and binomial routes must agree."""
    f = f_vector(cx)
    entries = _extended_g(f)[: f.d // 2 + 1]
    if any(gi != _g_direct(f, i) for i, gi in enumerate(entries)):
        raise InternalCheckError("g-vector routes disagree")
    return GVector(entries, d=f.d, impure=f.impure)


def extended_g(cx: SimplicialComplex) -> tuple:
    """All h-differences (1, h_1-h_0, ..., h_d-h_{d-1})."""
    return _extended_g(f_vector(cx))


def _extended_g(f: FVector) -> tuple:
    h = h_from_f(f).entries
    return (1,) + tuple(h[j] - h[j - 1] for j in range(1, len(h)))


def g1(cx: SimplicialComplex) -> int:
    cx = _complex(cx)
    return cx.n_faces(0) - (cx.dim + 2)


def g2(cx: SimplicialComplex) -> int:
    """g_2 = f_1 - d*f_0 + C(d+1, 2) with d = dim + 1."""
    cx = _complex(cx)
    return _g2(cx.n_faces(0), cx.n_faces(1), cx.dim + 1)


def _g2(f0: int, f1: int, d: int) -> int:
    return f1 - d * f0 + comb(d + 1, 2)


def g3(cx: SimplicialComplex) -> int:
    return _entry(extended_g(cx), 3)


def reduced_euler(cx: SimplicialComplex) -> int:
    """Alternating face-count sum: -f_{-1} + f_0 - f_1 + ..."""
    cx = _complex(cx)
    return -1 + sum((-1) ** k * cx.n_faces(k) for k in range(0, cx.dim + 1))


def link_g_sum(cx: SimplicialComplex, k: int) -> tuple:
    """Both sides of the link-sum identity for pure (d-1)-complexes:

    sum_v g_k(lk v)  vs  (k+1) g_{k+1} + (d+1-k) g_k,

    with g read as extended h-differences on both sides.
    """
    cx, k = _complex(cx), _index(k, "k")
    if k < 0:
        raise PreconditionError(f"link-sum index must be >= 0, got {k}")
    lhs = sum(_entry(_extended_g(FVector(e)), k) for e in _link_f_vectors(cx).values())
    f = f_vector(cx)
    eg = _extended_g(f)
    return lhs, (k + 1) * _entry(eg, k + 1) + (f.d + 1 - k) * _entry(eg, k)


def macaulay_pseudopower(a: int, i: int) -> int:
    """a^<i>: write a as a sum of binomials C(a_i,i) > C(a_{i-1},i-1) > ...
    greedily, bump every top and index by one, and re-sum."""
    a, i = _index(a, "a"), _index(i, "i")
    if a < 0 or i < 1:
        raise PreconditionError("need a >= 0 and i >= 1")
    if a == 0:
        return 0
    rem, idx, total = a, i, 0
    while rem > 0 and idx >= 1:
        over = idx + 1  # the top is the largest t < over with C(t, idx) <= rem
        while comb(over, idx) <= rem:
            over *= 2
        top = idx - 1 + bisect_right(range(idx, over), rem, key=lambda t: comb(t, idx))
        total += comb(top + 1, idx + 1)
        rem -= comb(top, idx)
        idx -= 1
    return total


def is_m_sequence(seq) -> bool:
    """Whether seq = (a_0, a_1, ...) satisfies a_0 = 1, a_i >= 0 and
    a_{k+1} <= a_k^<k> for every k >= 1."""
    try:
        seq = tuple(_index(a, "seq entry") for a in seq)
    except TypeError:
        raise MalformedInputError(f"seq must be an iterable of integers, got {seq!r}") from None
    if not seq or seq[0] != 1:
        return False
    if any(x < 0 for x in seq):
        return False
    for k in range(1, len(seq) - 1):
        if seq[k + 1] > macaulay_pseudopower(seq[k], k):
            return False
    return True
