"""Reading and writing complexes: the ``.scx`` facet-list text format and a
JSON object alternative, both canonical (sorted vertices, sorted facets) so
that write(read(x)) round-trips bit-exactly on canonical input."""

from __future__ import annotations

import json
from pathlib import Path

from .complexes import SimplicialComplex, _complex, from_facets
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
    if not isinstance(text, str):
        raise MalformedInputError(f"expected the text of a facet list, got {text!r}")
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
    facets = sorted(_complex(cx).facets, key=sorted)
    return "".join(" ".join(map(str, sorted(f))) + "\n" for f in facets if f)


def _path(path) -> Path:
    """``path`` as a ``Path``, or ``MalformedInputError`` if it is no path."""
    try:
        return Path(path)
    except TypeError:
        raise MalformedInputError(f"expected a file path, got {path!r}") from None


def _read_text(path) -> str:
    """The text of ``path``, untranslated: a lone CR ends no line.  A missing
    or unreadable file is a ParseError naming ``path``."""
    if not _path(path).exists():
        raise ParseError(f"{path}: no such file")
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc


def _write_text(path, text: str):
    """Write ``text``; a failed write is a PreconditionError naming ``path``."""
    try:
        _path(path).write_text(text)
    except OSError as exc:
        raise PreconditionError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def read_scx(path) -> SimplicialComplex:
    return read_scx_text(_read_text(path), source=str(path))


def write_scx(cx: SimplicialComplex, path):
    _write_text(path, write_scx_text(cx))


def _json_object(text: str, source: str, **lists) -> dict:
    """The JSON object in ``text``, whose fields named in ``lists``, where
    present, are lists of items of the (type, noun) given there; else a
    ParseError naming ``source``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: expected a JSON object")
    for key, (kind, noun) in lists.items():
        items = obj.get(key, [])
        if not isinstance(items, list) or not all(isinstance(x, kind) for x in items):
            raise ParseError(f'{source}: "{key}" must be a list of {noun}')
    return obj


def read_json_text(text: str, source: str = "<string>") -> SimplicialComplex:
    """Structured-object alternative: {"facets": [[...], ...]}."""
    obj = _json_object(text, source, facets=(list, "integer lists"))
    if "facets" not in obj:
        raise ParseError(f'{source}: expected an object with a "facets" field')
    try:
        return from_facets(obj["facets"])
    except MalformedInputError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def write_json_text(cx: SimplicialComplex) -> str:
    facets = [sorted(f) for f in sorted(_complex(cx).facets, key=sorted) if f]
    return json.dumps({"facets": facets}, indent=None, separators=(",", ":")) + "\n"


def load_complex(path) -> SimplicialComplex:
    """Dispatch on the extension: .json reads the object form, anything else
    the facet-list text form; an unreadable file is a ParseError."""
    path = _path(path)
    read = read_json_text if path.suffix == ".json" else read_scx_text
    return read(_read_text(path), source=str(path))


def write_complex(cx: SimplicialComplex, path):
    text = write_json_text(cx) if _path(path).suffix == ".json" else write_scx_text(cx)
    _write_text(path, text)
