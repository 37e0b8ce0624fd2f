"""The three retriangulation operations with exact g-vector bookkeeping.

Each replaces a ball B of the complex by a ball B' with the same boundary:
the facet masks of B are replaced by those of B' (``complexes._replaced``,
which alone chooses the fresh labels), each fresh vertex a new top bit, so
no move labels a facet.  For the central retriangulation B is given and B'
is the cone over its boundary; for the inverse stellar move B is the star of
a vertex v and B' the stacked completion of its link; for the Swartz move
(Lemma 3.8) B is the star of v and B' two balls glued along a missing facet
tau of the link: each half of the link split along tau is coned from a
fresh vertex or filled in.  A move at v reads its link first, so ``link``
refuses an absent v (``FaceNotPresentError``) or an unhashable one.  Each
returns a :class:`RetriangulationRecord` of the g-vectors before and after,
the entries its arithmetic predicts, which the harness recomputes, and the
vertices gained and lost, read off the two complexes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    SimplicialComplex, _bits, _components, _masks_in, _replaced, _tuple_order, as_face,
    is_simplex_boundary,
)
from .errors import PreconditionError, _index
from .facevectors import _complex, _entry, extended_g, g_vector
from .homology import (
    PredicateResult,
    _ball_checked,
    is_homology_sphere,
    is_normal_pseudomanifold,
    skeleton_completion,
)


@dataclass(frozen=True)
class RetriangulationRecord:
    kind: str  # "central" | "inverse-stellar" | "swartz"
    g_before: tuple
    g_after: tuple
    predicted: tuple  # pairs (i, predicted g_i of the output)
    new_vertices: tuple
    removed_vertices: tuple
    ball_used: SimplicialComplex | None = None
    steps: int = 0
    notes: tuple = ()

    def prediction_holds(self) -> bool:
        return all(_entry(self.g_after, i) == value for i, value in self.predicted)


def _record(kind: str, cx: SimplicialComplex, out: SimplicialComplex, deltas, **fields):
    """The record of an operation from ``cx`` to ``out`` that is predicted to
    change g_i by delta for each pair (i, delta) in ``deltas``; its new and
    removed vertices are read off the two complexes."""
    g_in = g_vector(cx).entries
    return RetriangulationRecord(
        kind=kind,
        g_before=g_in,
        g_after=g_vector(out).entries,
        predicted=tuple((i, g_in[i] + delta) for i, delta in deltas),
        new_vertices=tuple(sorted(out.vertices - cx.vertices)),
        removed_vertices=tuple(sorted(cx.vertices - out.vertices)),
        **fields,
    )


def _ball_deltas(d: int, sphere: SimplicialComplex, m: int, sign: int) -> tuple:
    """(i, sign * g_{i-1}(sphere)) for i <= min((d+1)/2, m), m the ball's least
    interior dimension (:func:`_ball_checked`): adding (sign 1) or removing
    (sign -1) a cone over the sphere, as in Lemmas 3.3 and 3.6."""
    eg = extended_g(sphere)
    return tuple((i, sign * _entry(eg, i - 1)) for i in range(1, min((d + 1) // 2, m) + 1))


def central_retriangulation(
    cx: SimplicialComplex, ball: SimplicialComplex, field="rational", check=True
):
    """Replace the interior of a ball subcomplex by the cone over its
    boundary from one fresh vertex.

    For a ball whose interior faces all have dimension >= m, the face
    counts satisfy f_i(out) = f_i + f_{i-1}(boundary) for i < m, so
    g_i(out) = g_i + g_{i-1}(boundary) is predicted for i <= m (capped at
    the g-vector length).
    """
    cx, ball = _complex(cx), _complex(ball)
    if ball.dim != cx.dim:
        raise PreconditionError(
            f"ball dimension {ball.dim} differs from complex dimension {cx.dim}"
        )
    absent = [tuple(sorted(facet)) for facet in ball.facets if facet not in cx]
    if absent:  # the least absent facet, whatever the order of the ball's
        raise PreconditionError(f"ball facet {min(absent)} is not a face of the complex")
    boundary, _, m = _ball_checked(ball, field, check)
    bit = cx._masks[0]
    # the maximal faces of (cx.faces() - interior) | cone: the facets of cx in
    # the ball, and the faces only they covered, are interior or under the cone
    cone = [mask | 1 << len(bit) for mask in _masks_in(boundary, bit)]
    out = _replaced(cx, _masks_in(ball, bit), cone)
    return out, _record(
        "central", cx, out, _ball_deltas(cx.dim, boundary, m, 1), ball_used=ball
    )


def missing_face_identity_sides(cx: SimplicialComplex, tau, k: int):
    """Both sides of the missing-face bookkeeping identity for a central
    retriangulation along the star of ``tau``, at dimension k.

    The right-hand side keeps the missing k-faces of the input that avoid
    tau, adds the cone-point joins of faces that are missing in the star
    (at k = 1 that means the vertices outside the star: they pair with the
    cone point into new missing edges), and adds tau itself at its own
    dimension (tau's boundary survives while tau is removed, so it becomes
    a minimal non-face).
    """
    _, lhs, rhs = next(_identity_sides(_complex(cx), tau, (_index(k, "k"),)))
    return lhs, rhs


def _identity_sides(cx: SimplicialComplex, tau, dims):
    """(k, lhs, rhs) for each dimension k in ``dims``, from one retriangulation."""
    t = as_face(tau)
    star = cx.star(t)
    out, record = central_retriangulation(cx, star)
    u = record.new_vertices[0]
    for k in dims:
        lhs = {frozenset(f) for f in out.missing_faces(k)}
        rhs = {f for f in map(frozenset, cx.missing_faces(k)) if not t <= f}
        if k == 1:
            rhs |= {frozenset({w, u}) for w in cx.vertices - star.vertices}
        elif k >= 2:
            rhs |= {frozenset(f) | {u} for f in star.missing_faces(k - 1) if f in cx}
        if k == len(t) - 1 and len(t) >= 2:
            rhs.add(t)
        yield k, lhs, rhs


def crtr_missing_faces_check(cx: SimplicialComplex, tau) -> PredicateResult:
    """Compare both sides of the missing-face identity at every dimension."""
    for k, lhs, rhs in _identity_sides(_complex(cx), tau, range(0, cx.dim + 2)):
        if lhs != rhs:
            witness = min(tuple(sorted(f)) for f in lhs ^ rhs)
            return PredicateResult(False, witness, f"sides differ at dimension {k}")
    return PredicateResult(True)


def _detect_stack_level(link: SimplicialComplex, d: int) -> int:
    eg = extended_g(link)
    for r in range(2, (d + 1) // 2 + 1):
        if _entry(eg, r) == 0:
            return r
    raise PreconditionError(
        "link has no admissible stackedness level (its g-vector never vanishes)"
    )


def inverse_stellar(
    cx: SimplicialComplex, v: int, r: int | None = None, field="rational", check=True
):
    """Replace the star of a vertex v by the stacked ball determined by its
    link: the faces whose (r-1)-skeleton lies in the link.

    ``link`` refuses an absent or unhashable v.  With ``check`` the link must
    be a homology sphere of dimension dim - 1, and its completion (the
    vertex sets whose (r-1)-skeleton lies in the link) a homology ball whose
    boundary is the link and whose least stackedness (:func:`_ball_checked`)
    is at most r - 1.  With or without ``check``, no interior face of the
    completion may be present already.  r is auto-detected as the least
    level at which the link's g-vector vanishes when omitted.
    """
    cx, r = _complex(cx), None if r is None else _index(r, "r")
    link = cx.link([v])
    d = cx.dim
    if check:
        if link.dim != d - 1:
            raise PreconditionError(f"link of {v} has dimension {link.dim}, not {d - 1}")
        _require_sphere_link(link, v, field)
    if r is None:
        r = _detect_stack_level(link, d)
    if not 2 <= r <= (d + 1) // 2:
        raise PreconditionError(f"stackedness level r={r} outside 2..(d+1)/2")
    filled = skeleton_completion(link, r - 1)
    boundary, interior, m = _ball_checked(filled, field, check)
    if check and boundary != link:
        raise PreconditionError("link completion does not have the link as boundary")
    if check and (least := filled.dim - m) > r - 1:
        raise PreconditionError(f"link completion is {least}-stacked, not {r - 1}-stacked")
    for f in sorted(interior, key=sorted):
        if f in cx:
            raise PreconditionError(
                f"interior face {tuple(sorted(f))} of the completion is already present"
            )
    bit, masks = cx._masks
    out = _replaced(cx, [mask for mask in masks if mask & bit[v]], _masks_in(filled, bit))
    # the fill of an isolated vertex's link, unchecked, has no interior: cap at d
    deltas = _ball_deltas(d, link, m if interior else d, -1)
    return out, _record("inverse-stellar", cx, out, deltas, ball_used=filled)


def _split_link_along(link: SimplicialComplex, tau):
    """Split a homology sphere along the boundary of a missing facet into
    the two summands, each completed with the facet itself.

    Components are taken in the facet-adjacency graph of the link with
    adjacencies through ridges inside tau removed, ordered by their
    lexicographically smallest facet: the :func:`_components` of one bit
    per facet mask, in vertex-tuple order (:func:`_tuple_order`), and one
    mask per ridge outside tau.
    """
    bit, masks = link._masks
    facets = _tuple_order(masks)
    tm = link._through(tau)[1]
    through = {}  # ridge outside tau -> the bits of the facets containing it
    for idx, m in enumerate(facets):
        for ridge in (m ^ b for b in _bits(m)):
            if ridge & tm != ridge:
                through[ridge] = through.get(ridge, 0) | 1 << idx
    groups = _components([*through.values(), *(1 << idx for idx in range(len(facets)))])
    if len(groups) != 2:
        raise PreconditionError(
            f"removing the facet boundary splits the link into {len(groups)} parts, not 2"
        )
    return [
        SimplicialComplex._of_masks([*bit], [m for i, m in enumerate(facets) if g >> i & 1] + [tm])
        for g in sorted(groups, key=lambda g: g & -g)
    ]


def _require_sphere_link(link, v, field):
    sphere = is_homology_sphere(link, field)
    if not sphere:
        raise PreconditionError(
            f"link of {v} is not a homology sphere (witness {sphere.witness})"
        )


def _require_swartz_input(cx, link, v, field):
    pm = is_normal_pseudomanifold(cx)
    if not pm:
        raise PreconditionError(
            f"input is not a normal pseudomanifold ({pm.reason}; witness {pm.witness})"
        )
    _require_sphere_link(link, v, field)


def _swartz_move(cx: SimplicialComplex, v: int, link: SimplicialComplex, tau):
    """(output, notes) of one Swartz move: the star of v replaced by each half
    of its link split along the missing facet tau, filled in if it bounds a
    missing facet, else coned from a fresh vertex whose label is read off the output."""
    bit, masks = cx._masks
    new, notes = [], []  # a note of None stands for a cone
    for sphere in _split_link_along(link, tau):
        if is_simplex_boundary(sphere):
            new.append(sum(map(bit.__getitem__, sphere.vertices)))
            notes.append("filled missing facet")
        else:
            top = 1 << len(bit) + notes.count(None)  # the fresh vertex's bit
            new += [m | top for m in _masks_in(sphere, bit)]
            notes.append(None)
    out = _replaced(cx, [m for m in masks if m & bit[v]], new)
    cones = iter(sorted(out.vertices - cx.vertices))  # in the order of their bits
    return out, tuple(note or f"coned with vertex {next(cones)}" for note in notes)


def swartz_operation(cx: SimplicialComplex, v: int, tau, field="rational", check=True):
    """Remove a vertex, refused by ``link`` if absent, insert a missing facet
    of its link, and close the two resulting spheres: each is coned from a
    fresh vertex unless it bounds a missing facet, which is then filled in."""
    link = _complex(cx).link([v])
    t, _, present = cx._through(tau)
    if present or not t <= cx.vertices:
        raise PreconditionError(f"{tuple(sorted(t))} must be a missing face of the complex")
    if check:
        _require_swartz_input(cx, link, v, field)
    if link.dim < 0 or tuple(sorted(t)) not in link.missing_faces(link.dim):
        raise PreconditionError(f"{tuple(sorted(t))} is not a missing facet of the link of {v}")
    out, notes = _swartz_move(cx, v, link, t)
    return out, _record(
        "swartz", cx, out, ((2, -1),) if cx.dim >= 3 else (), steps=1, notes=notes
    )


def swartz_all(cx: SimplicialComplex, v: int, field="rational", check=True):
    """Iterate the single-step operation at a vertex, refused by ``link`` if
    absent, until every missing facet of its original link has been added.

    After one step the vertex is gone and the remaining missing facets live
    in the links of the fresh cone vertices, which are processed in FIFO
    order; missing facets of a link that are already faces of the complex
    are skipped (they cannot be inserted) and recorded.  With ``check`` the
    input must be a normal pseudomanifold with a homology-sphere link at
    ``v``, tested before any move and even when none is made; a move on a
    sphere link keeps a normal pseudomanifold one, so each later move tests
    only the link it moves at.
    """
    if _complex(cx).dim < 3:
        raise PreconditionError("iterated operation needs dimension >= 3")
    link = cx.link([v])
    if check:
        _require_swartz_input(cx, link, v, field)
    current, queue, steps = cx, [v], 0
    skipped, combined_notes = [], []
    while queue:
        w = queue.pop(0)
        if steps:  # before the first move the queue holds only v
            link = current.link([w])
        for t in link.missing_faces(link.dim):
            if t not in current:
                break
            skipped.append(t)
        else:
            continue
        if check and steps:
            _require_sphere_link(link, w, field)
        out, notes = _swartz_move(current, w, link, t)
        queue.extend(sorted(out.vertices - current.vertices))  # the fresh cone vertices
        current, steps = out, steps + 1
        combined_notes.extend(notes)
    return current, _record(
        "swartz", cx, current, ((2, -steps),), steps=steps,
        notes=tuple(combined_notes + [f"skipped {s}" for s in sorted(set(skipped))]),
    )
