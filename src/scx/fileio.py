"""Reading and writing complexes: the ``.scx`` facet-list text format and a
JSON object alternative, both canonical (sorted vertices, sorted facets) so
that write(read(x)) round-trips bit-exactly on canonical input."""

from __future__ import annotations

import json
from pathlib import Path

from .complexes import SimplicialComplex, from_facets
from .errors import MalformedInputError, ParseError, PreconditionError


#: ASCII whitespace but the line feed, which alone ends a line
_BLANK = " \t\r\v\f"


def _label(token) -> int:
    # ASCII digits only, in a str or bytes token: int() alone would also read
    # 1_0, +1 and other scripts' digits
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a vertex label: {token!r}")
    return int(token)


def _labels(text: str) -> list:
    """The labels in ``text``, separated by ASCII whitespace only: bytes.split()
    breaks there alone, where str.split() also breaks at U+00A0, U+2028 and
    other separators."""
    return [_label(t) for t in text.encode().split()]


def read_scx_text(text: str, source: str = "<string>") -> SimplicialComplex:
    """Parse facet-list text: one facet of non-negative integers separated by
    ASCII whitespace per line, lines ending in LF or CRLF; '#' comment lines
    and blank lines are ignored."""
    facets = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(_BLANK)
        if not line or line.startswith("#"):
            continue
        try:
            labels = _labels(line)
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: not an integer facet: {line!r}") from exc
        if len(set(labels)) != len(labels):
            raise ParseError(f"{source}:{lineno}: repeated vertex in {line!r}")
        facets.append(labels)
    return from_facets(facets)


def write_scx_text(cx: SimplicialComplex) -> str:
    facets = sorted(cx.facets, key=sorted)
    return "".join(" ".join(map(str, sorted(f))) + "\n" for f in facets if f)


def read_scx(path) -> SimplicialComplex:
    with open(path, newline="") as fh:  # untranslated: a lone CR ends no line
        return read_scx_text(fh.read(), source=str(path))


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
    the facet-list text form; an unreadable file is a ParseError."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    try:
        if path.suffix == ".json":
            return read_json_text(path.read_text(), source=str(path))
        return read_scx(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc


def _write_text(path, text: str):
    """Write ``text``; a failed write is a PreconditionError naming ``path``."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise PreconditionError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def write_complex(cx: SimplicialComplex, path):
    text = write_json_text(cx) if Path(path).suffix == ".json" else write_scx_text(cx)
    _write_text(path, text)
