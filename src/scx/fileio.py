"""Reading and writing complexes: the ``.scx`` facet-list text format and a
JSON object alternative, both canonical (sorted vertices, sorted facets) so
that write(read(x)) round-trips bit-exactly on canonical input."""

from __future__ import annotations

import json
from pathlib import Path

from .complexes import SimplicialComplex, from_facets
from .errors import MalformedInputError, ParseError


def _label(token: str) -> int:
    # ASCII digits only: int() alone would also read 1_0, +1 and other scripts' digits
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a vertex label: {token!r}")
    return int(token)


def read_scx_text(text: str, source: str = "<string>") -> SimplicialComplex:
    """Parse facet-list text: one facet of whitespace-separated non-negative
    integers per line; '#' comment lines and blank lines are ignored."""
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            labels = [_label(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: not an integer facet: {line!r}") from exc
        if len(set(labels)) != len(labels):
            raise ParseError(f"{source}:{lineno}: repeated vertex in {line!r}")
        facets.append(labels)
    return from_facets(facets)


def write_scx_text(cx: SimplicialComplex) -> str:
    lines = [
        " ".join(str(v) for v in sorted(facet))
        for facet in sorted(cx.facets, key=sorted)
        if facet
    ]
    return "".join(line + "\n" for line in lines)


def read_scx(path) -> SimplicialComplex:
    path = Path(path)
    return read_scx_text(path.read_text(), source=str(path))


def write_scx(cx: SimplicialComplex, path):
    Path(path).write_text(write_scx_text(cx))


def read_json_text(text: str, source: str = "<string>") -> SimplicialComplex:
    """Structured-object alternative: {"facets": [[...], ...]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "facets" not in obj:
        raise ParseError(f'{source}: expected an object with a "facets" field')
    facets = obj["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise ParseError(f'{source}: "facets" must be a list of integer lists')
    try:
        return from_facets(facets)
    except MalformedInputError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def write_json_text(cx: SimplicialComplex) -> str:
    facets = [sorted(f) for f in sorted(cx.facets, key=sorted) if f]
    return json.dumps({"facets": facets}, indent=None, separators=(",", ":")) + "\n"


def load_complex(path) -> SimplicialComplex:
    """Dispatch on the extension: .json reads the object form, anything else
    the facet-list text form."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    if path.suffix == ".json":
        return read_json_text(path.read_text(), source=str(path))
    return read_scx(path)


def write_complex(cx: SimplicialComplex, path):
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(write_json_text(cx))
    else:
        write_scx(cx, path)
