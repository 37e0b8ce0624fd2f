"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 violated
precondition (including size guards), 4 unknown statement id, 5 failed check.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from functools import wraps

import click

from . import generators, verify
from .errors import (
    InternalCheckError,
    MalformedInputError,
    ParseError,
    PreconditionError,
    ScxError,
    UnknownStatementError,
)
from .exact import validate_field
from .facevectors import f_vector, g_vector, h_vector
from .fileio import _label, _labels, _write_text, load_complex, write_complex, write_scx_text
from .homology import is_homology_manifold, is_homology_sphere, is_normal_pseudomanifold
from .isomorphism import are_isomorphic
from .retriangulate import (
    central_retriangulation,
    inverse_stellar,
    swartz_all,
    swartz_operation,
)
from .rigidity import stress_basis

_EXIT_CODES = (
    (UnknownStatementError, 4),
    (InternalCheckError, 5),
    ((ParseError, MalformedInputError), 2),
)


def _exit_code_for(exc: ScxError) -> int:
    for types, code in _EXIT_CODES:
        if isinstance(exc, types):
            return code
    return 3  # PreconditionError, TooLargeError and any other ScxError


def handles_errors(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ScxError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_exit_code_for(exc))

    return wrapper


def _parse_face(text: str) -> tuple:
    try:
        face = tuple(_labels(text.replace(",", " ")))
    except ValueError as exc:
        raise ParseError(f"not a face: {text!r}") from exc
    if len(set(face)) != len(face):
        raise ParseError(f"repeated vertex in face {text!r}")
    return face


def input_path(fn):
    """Accept the input file either positionally or as --input, and pass the
    command the loaded complex as ``cx``."""

    @click.argument("input_arg", required=False, type=click.Path(), metavar="[INPUT]")
    @click.option("--input", "input_opt", type=click.Path(), default=None,
                  help="input file (alternative to the positional argument)")
    @wraps(fn)
    def wrapper(*args, input_arg=None, input_opt=None, **kwargs):
        path = input_arg or input_opt
        if path is None:
            raise PreconditionError("no input file given (positional or --input)")
        return fn(*args, cx=load_complex(path), **kwargs)

    return handles_errors(wrapper)


class _Integer(click.ParamType):
    """Every integer the CLI reads: ASCII digits as fileio._label reads them,
    with an optional leading '-' so that a negative value reaches the
    library's own checks. click's int would also take 1_0, +1 and other
    scripts' digits."""

    name = "integer"

    def convert(self, value, param, ctx):
        text = str(value)  # a default arrives as an int
        try:
            return -_label(text[1:]) if text.startswith("-") else _label(text)
        except ValueError:
            self.fail(f"{value!r} is not an integer", param, ctx)


_INT = _Integer()


def _field_option(value: str):
    if value == "rational":
        return "rational"
    try:
        return _INT.convert(value, None, None)
    except click.BadParameter as exc:
        raise ParseError(f"--field must be 'rational' or a prime, got {value!r}") from exc


@click.group()
def main():
    """Exact calculus on simplicial complexes: face vectors, homology-based
    classification, retriangulations, rigidity, and a statement-verification
    harness."""


@main.command()
@input_path
@click.option("--field", default="rational", help="homology field: 'rational' or a prime")
def info(cx, field):
    """Print face vectors and classification predicates of a complex."""
    field = validate_field(_field_option(field))
    f = f_vector(cx)
    click.echo(f"dimension: {cx.dim}")
    click.echo(f"f-vector: {' '.join(map(str, f.entries))}")
    click.echo(f"h-vector: {' '.join(map(str, h_vector(cx).entries))}")
    g = g_vector(cx)
    click.echo(f"g-vector: {' '.join(map(str, g.entries))}")
    if f.impure:
        click.echo("note: complex is not pure; vectors use d = dim + 1")
    click.echo(f"pure: {cx.is_pure()}")
    click.echo(f"prime: {cx.is_prime()}")
    pm = is_normal_pseudomanifold(cx)
    click.echo(f"normal pseudomanifold: {bool(pm)}")
    if cx.dim >= 1:
        click.echo(f"homology manifold: {bool(is_homology_manifold(cx, field))}")
    click.echo(f"homology sphere: {bool(is_homology_sphere(cx, field))}")


@main.command()
@input_path
def gvector(cx):
    """Print g_0..g_{floor(d/2)} of a complex."""
    click.echo(" ".join(str(x) for x in g_vector(cx).entries))


@main.command()
@input_path
@click.option("--face", required=True, help="comma-separated vertex labels")
@click.option("--output", type=click.Path(), default=None)
def link(cx, face, output):
    """Write or print the link of a face."""
    _write_or_print(cx.link(_parse_face(face)), output)


def _write_or_print(cx, output):
    if output:
        write_complex(cx, output)
    else:
        click.echo(write_scx_text(cx), nl=False)


@main.command()
@input_path
@click.option("-k", "--k", "k", type=_INT, required=True, help="dimension of missing faces")
def missing(cx, k):
    """List the missing k-faces, one per line."""
    for face in cx.missing_faces(k):
        click.echo(" ".join(map(str, face)))


@main.group()
def op():
    """Retriangulation operations."""


def _move(fn):
    """Register the retriangulation ``fn(cx, **options) -> (out, record)`` as
    an ``op`` command: it prints the record, writes ``--output`` and checks
    ``--check-iso``, exiting 1 when the output is not isomorphic to it."""

    @op.command()
    @input_path
    @click.option("--output", type=click.Path(), default=None)
    @click.option("--check-iso", type=click.Path(), default=None)
    @wraps(fn)
    def command(cx, output, check_iso, **options):
        out, record = fn(cx, **options)
        click.echo(f"kind: {record.kind}")
        click.echo(f"g before: {' '.join(map(str, record.g_before))}")
        click.echo(f"g after: {' '.join(map(str, record.g_after))}")
        predicted = " ".join(f"g{i}={v}" for i, v in record.predicted) or "(none)"
        click.echo(f"predicted: {predicted}")
        click.echo(f"prediction holds: {record.prediction_holds()}")
        if record.new_vertices:
            click.echo(f"new vertices: {' '.join(map(str, record.new_vertices))}")
        if record.removed_vertices:
            click.echo(f"removed vertices: {' '.join(map(str, record.removed_vertices))}")
        if record.steps:
            click.echo(f"steps: {record.steps}")
        for note in record.notes:
            click.echo(f"note: {note}")
        if output:
            write_complex(out, output)
            click.echo(f"wrote {output}")
        if check_iso:
            cert = are_isomorphic(out, load_complex(check_iso))
            click.echo(f"isomorphic to {check_iso}: {bool(cert)}")
            if not cert:
                sys.exit(1)

    return command


@_move
@click.option("--ball", required=True,
              help="'star:V1,V2,...' for a face star, or a path to a facet list")
def crtr(cx, ball):
    """Central retriangulation along a ball subcomplex."""
    if ball.startswith("star:"):
        return central_retriangulation(cx, cx.star(_parse_face(ball[len("star:"):])))
    return central_retriangulation(cx, load_complex(ball))


@_move
@click.option("--vertex", type=_INT, required=True)
@click.option("--r", type=_INT, default=None, help="stackedness level (auto-detected)")
def sdinv(cx, vertex, r):
    """Inverse stellar retriangulation at a vertex."""
    return inverse_stellar(cx, vertex, r)


@_move
@click.option("--vertex", type=_INT, required=True)
@click.option("--tau", default=None, help="missing facet of the link (comma-separated)")
@click.option("--all", "everything", is_flag=True, help="iterate over all missing facets")
def swartz(cx, vertex, tau, everything):
    """Swartz operation: one step with --tau, or --all to iterate."""
    if everything:
        return swartz_all(cx, vertex)
    if tau is None:
        raise PreconditionError("provide --tau or --all")
    return swartz_operation(cx, vertex, _parse_face(tau))


@main.command()
@input_path
@click.option("--seed", type=_INT, default=0, show_default=True)
@click.option("--trials", type=_INT, default=3, show_default=True)
def stress(cx, seed, trials):
    """Print an exact basis of the stress space, one vector per line.

    The embedding's coordinates are drawn from [-2^16, 2^16] by the seed, and
    the vectors depend on it.
    """
    basis = stress_basis(cx, seed=seed, trials=trials)
    click.echo("edges: " + " ".join(f"{u}-{v}" for u, v in basis.edges))
    for vec in basis.vectors:
        click.echo(" ".join(str(x) for x in vec))
    non_participating = sorted(v for v, p in basis.participation.items() if not p)
    click.echo(f"dimension: {len(basis.vectors)}")
    click.echo(f"non-participating vertices: {non_participating or 'none'}")


def _numbered(what: str, names: tuple, number: int) -> str:
    if 1 <= number <= len(names):
        return names[number - 1]
    table = " ".join(f"{i}={n}" for i, n in enumerate(names, 1))
    raise PreconditionError(f"unknown {what} {number}; {what} {table}")


def _g2_one(d, variant, param):
    variant = _numbered("VARIANT", ("join", "cycle"), variant)
    return generators.g2_one_family(d, variant, param).complex


def _g2_two(d, kind, *param):
    kinds = ("triple_join", "suspension", "octahedral", "crtr_ridge")
    return generators.g2_two_catalog(d, _numbered("KIND", kinds, kind), *param).complex


# each generator's builder, and the parameter counts it takes
_GENERATORS = {
    "simplex-boundary": (generators.simplex_boundary, (1,)),
    "cycle": (generators.cycle, (1,)),
    "stacked-sphere": (generators.stacked_sphere, (2,)),
    "cross-polytope": (generators.cross_polytope_boundary, (1,)),
    "barnette": (lambda: generators.barnette_sphere().complex, (0,)),
    "g2one": (_g2_one, (3,)),
    "g2two": (_g2_two, (2, 3)),
}


@main.command()
@click.argument("name")
@click.argument("params", nargs=-1, type=_INT)
@click.option("--output", type=click.Path(), default=None)
@handles_errors
def gen(name, params, output):
    """Generate a named complex (simplex-boundary D | cycle N |
    stacked-sphere D N | cross-polytope D | g2one D VARIANT PARAM |
    g2two D KIND [PARAM] | barnette)."""
    if name not in _GENERATORS:
        raise PreconditionError(f"unknown generator {name!r}; known: {', '.join(_GENERATORS)}")
    fn, counts = _GENERATORS[name]
    if len(params) not in counts:
        raise PreconditionError(
            f"{name} takes {' or '.join(map(str, counts))} integer parameter(s)"
        )
    _write_or_print(fn(*params), output)


def _scale_options(fn):
    for f in fields(verify.Scale):
        fn = click.option("--" + f.name.replace("_", "-"), type=_INT, default=f.default,
                          show_default=True)(fn)
    fn = click.option("--report", type=click.Path(), default=None,
                      help="also write the reports as JSON")(fn)
    return fn


def _emit_reports(reports, report_path) -> int:
    """Print the reports and their summary and write them to ``report_path``;
    the exit code is 1 when an instance was refuted.  A scale that gave the
    failing statements no instance at all refutes nothing: that raises
    ``PreconditionError`` (exit 3), naming them."""
    for rep in reports:
        click.echo(rep.render())
    if report_path:
        _write_text(report_path, json.dumps([rep.to_dict() for rep in reports], indent=2) + "\n")
    failed = [rep for rep in reports if not rep.passed]
    total = sum(rep.instances for rep in reports)
    passes = sum(rep.passes for rep in reports)
    click.echo(
        f"{len(reports) - len(failed)}/{len(reports)} statements passed"
        f" ({passes}/{total} instances)"
    )
    if failed and not any(rep.instances for rep in failed):
        names = ", ".join(rep.statement for rep in failed)
        raise PreconditionError(f"no instances at this scale for {names}")
    return 1 if failed else 0


@main.command(name="verify")
@click.argument("statement")
@_scale_options
@handles_errors
def verify_cmd(statement, report, **scale):
    """Run one registered statement check."""
    rep = verify.run_statement(statement, verify.Scale(**scale))
    sys.exit(_emit_reports([rep], report))


@main.command(name="verify-all")
@_scale_options
@handles_errors
def verify_all_cmd(report, **scale):
    """Run every registered statement check."""
    sys.exit(_emit_reports(verify.run_all(verify.Scale(**scale)), report))


@main.command()
@handles_errors
def statements():
    """List the registered statement ids."""
    for sid in verify.statement_ids():
        click.echo(sid)


if __name__ == "__main__":
    main()
