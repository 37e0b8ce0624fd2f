"""Write the census of combinatorial 3-spheres with 8 vertices to stdout.

    python tests/make_census.py > tests/census_3spheres_8.txt

Breadth-first search over bistellar moves from the boundary of the
4-simplex, keeping at most 8 vertices and one complex per isomorphism
class.  It finds 1, 2, 5 and 39 spheres with 5, 6, 7 and 8 vertices,
Barnette's counts (1973), so the 39 are the whole census.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from scx import are_isomorphic, f_vector, from_facets, simplex_boundary, write_scx_text
from scx.isomorphism import _vertex_classes

MAX_VERTICES = 8


def bistellar_neighbours(cx):
    """Every complex one bistellar move away, on the labels 0..n-1.

    A move takes a face A whose link is the boundary of a non-face B (a new
    vertex when A is a facet) and replaces the star A * ∂B by ∂A * B.
    """
    faces = cx.faces()
    for k in range(cx.dim + 1):
        for a in cx.faces_of_dim(k):
            if k == cx.dim:
                if len(cx.vertices) == MAX_VERTICES:
                    continue
                b = frozenset([max(cx.vertices) + 1])
            else:
                link = cx.link(a)
                b = frozenset(link.vertices)
                if b in faces or link.facets != {b - {v} for v in b}:
                    continue
            star = {a | (b - {v}) for v in b}
            out = from_facets((cx.facets - star) | {(a - {v}) | b for v in a})
            label = {v: i for i, v in enumerate(sorted(out.vertices))}
            yield from_facets([[label[v] for v in f] for f in out.facets])


def invariants(cx):
    # the sorted vertex classes give f_0, f_1 (the degrees) and the facets
    # (the facets through each vertex), so they already imply the f-vector of
    # a 3-sphere (Dehn-Sommerville)
    return tuple(sorted(_vertex_classes(cx)[0].values()))


def census():
    start = simplex_boundary(4)
    classes = {invariants(start): [start]}
    queue = [start]
    for cx in queue:
        for other in bistellar_neighbours(cx):
            bucket = classes.setdefault(invariants(other), [])
            if not any(are_isomorphic(other, known) for known in bucket):
                bucket.append(other)
                queue.append(other)
    return queue


def main():
    spheres = [cx for cx in census() if len(cx.vertices) == MAX_VERTICES]
    spheres.sort(key=lambda cx: (f_vector(cx).entries, sorted(map(sorted, cx.facets))))
    print(f"# The {len(spheres)} combinatorial 3-spheres with {MAX_VERTICES} vertices"
          " (Barnette 1973),")
    print("# one block per sphere; written by tests/make_census.py.")
    for i, cx in enumerate(spheres, 1):
        print(f"# sphere {i}: f-vector {' '.join(map(str, f_vector(cx).entries[1:]))}")
        sys.stdout.write(write_scx_text(cx))


if __name__ == "__main__":
    main()
