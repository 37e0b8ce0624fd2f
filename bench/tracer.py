"""Per-layer counters for the traced run, installed from outside ``src/``.

Each traced function is replaced by a wrapper everywhere it is bound: its
module attribute, every ``from ... import`` binding of it in other ``scx``
modules, and the class attribute for ``SimplicialComplex`` methods.  The
leaf methods run over a million times in one verification pass, so the
wrappers keep aggregated figures (calls, self time, and a per-function
extra: distinct inputs or matrix cells) instead of one span per call.
Self time is a call's duration minus the time spent in traced callees.
"""

from __future__ import annotations

import sys
from time import perf_counter

#: (metric prefix, module, attribute, extra figure or None)
TARGETS = (
    ("complexes.faces", "scx.complexes", "SimplicialComplex.faces", None),
    ("complexes.link", "scx.complexes", "SimplicialComplex.link", None),
    ("complexes.init", "scx.complexes", "SimplicialComplex.__init__", None),
    ("complexes.missing_faces", "scx.complexes", "SimplicialComplex.missing_faces", None),
    ("exact.rank_rational", "scx.exact", "rank_rational", "cells"),
    ("exact.rank_mod", "scx.exact", "rank_mod", "cells"),
    ("exact.right_nullspace", "scx.exact", "right_nullspace", "cells"),
    ("homology.boundary_matrix", "scx.homology", "boundary_matrix", "cells"),
    ("homology.betti", "scx.homology", "betti", "distinct"),
    ("homology.is_homology_sphere", "scx.homology", "is_homology_sphere", "distinct"),
    ("homology.is_homology_ball", "scx.homology", "is_homology_ball", "distinct"),
    ("homology.ball_boundary", "scx.homology", "ball_boundary", None),
    ("homology.interior_faces", "scx.homology", "interior_faces", None),
    ("homology.is_r_stacked_ball", "scx.homology", "is_r_stacked_ball", None),
    ("homology.is_normal_pseudomanifold", "scx.homology", "is_normal_pseudomanifold", None),
    ("homology.skeleton_completion", "scx.homology", "skeleton_completion", None),
    ("facevectors.f_vector", "scx.facevectors", "f_vector", None),
    ("facevectors.g_vector", "scx.facevectors", "g_vector", None),
    ("rigidity.generic_rank_trials", "scx.rigidity", "generic_rank_trials", None),
    ("rigidity.stress_basis", "scx.rigidity", "stress_basis", None),
    ("rigidity.rigidity_matrix", "scx.rigidity", "rigidity_matrix", None),
    ("isomorphism.are_isomorphic", "scx.isomorphism", "are_isomorphic", None),
    ("retriangulate.central_retriangulation", "scx.retriangulate", "central_retriangulation", None),
    ("retriangulate.inverse_stellar", "scx.retriangulate", "inverse_stellar", None),
    ("retriangulate.swartz_all", "scx.retriangulate", "swartz_all", None),
    ("fileio.read_scx_text", "scx.fileio", "read_scx_text", None),
    ("fileio.write_scx_text", "scx.fileio", "write_scx_text", None),
)

# homology predicates are counted on (facets, field), the field defaulting
# to the rationals as in their signatures
_FIELD_DEFAULT = "rational"


def _input_cells(args, kwargs, result):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


def _output_cells(args, kwargs, result):
    return len(result.row_faces) * len(result.col_faces)


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`remove`."""

    def __init__(self):
        self.calls = {prefix: 0 for prefix, *_ in TARGETS}
        self.self_s = {prefix: 0.0 for prefix, *_ in TARGETS}
        self.cells = {p: 0 for p, _, _, extra in TARGETS if extra == "cells"}
        self.distinct = {p: set() for p, _, _, extra in TARGETS if extra == "distinct"}
        self._child = [0.0]  # traced-callee time of each open call
        self._undo = []

    def install(self):
        for prefix, module_name, attr, extra in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(prefix, original, extra)
            self._rebind(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for name, module in list(sys.modules.items()):
                if name == "scx" or name.startswith("scx."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper)

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, prefix, fn, extra):
        calls, self_s, child = self.calls, self.self_s, self._child
        if extra == "distinct":
            seen = self.distinct[prefix]

            def note(args, kwargs, result):
                field = args[1] if len(args) > 1 else kwargs.get("field", _FIELD_DEFAULT)
                seen.add((args[0].facets, field))

        elif extra == "cells":
            cells = self.cells
            measure = _output_cells if prefix == "homology.boundary_matrix" else _input_cells

            def note(args, kwargs, result):
                cells[prefix] += measure(args, kwargs, result)

        else:
            note = None

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[prefix] += elapsed - child.pop()
                child[-1] += elapsed
                calls[prefix] += 1
            if note is not None:
                note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict:
        """Counts by ``<prefix>.calls``/``.self_s``/``.cells``/``.distinct``."""
        out = {}
        for prefix, *_ in TARGETS:
            out[f"{prefix}.calls"] = self.calls[prefix]
            out[f"{prefix}.self_s"] = self.self_s[prefix]
            if prefix in self.cells:
                out[f"{prefix}.cells"] = self.cells[prefix]
            if prefix in self.distinct:
                out[f"{prefix}.distinct"] = len(self.distinct[prefix])
        out["trace.spans"] = sum(self.calls.values())
        return out
