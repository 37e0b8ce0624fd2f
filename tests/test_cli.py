import hashlib
import json

import pytest
from click.testing import CliRunner

from scx import (
    barnette_sphere,
    cross_polytope_boundary,
    cycle,
    facevectors,
    from_facets,
    g2_one_family,
    is_homology_manifold,
    is_homology_sphere,
    is_normal_pseudomanifold,
    isomorphism,
    join,
    simplex_boundary,
    stacked_sphere,
    suspension,
    write_scx,
)
from scx import errors, exact, homology, run_all, verify
from scx.cli import _exit_code_for, main
from scx.generators import standard_catalog
from scx.rigidity import RIGIDITY_GUARD
from conftest import clear_memos, shells_without_the_s_test
from test_homology import RP2_FACETS, TORUS_7, memo_counts, record_links, search_counts
from test_retriangulate import octahedral_wedge


def invoke(*args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def write_barnette(tmp_path):
    path = tmp_path / "barnette.scx"
    write_scx(barnette_sphere().complex, path)
    return str(path)


def test_info_reports_g2_of_fixture(tmp_path):
    result = invoke("info", write_barnette(tmp_path))
    assert result.exit_code == 0
    assert "g-vector: 1 3 5" in result.output
    assert "homology sphere: True" in result.output


BARNETTE_INFO = """\
dimension: 3
f-vector: 1 8 27 38 19
h-vector: 1 4 9 4 1
g-vector: 1 3 5
pure: True
prime: True
normal pseudomanifold: True
homology manifold: True
homology sphere: True
"""

RP2_INFO = """\
dimension: 2
f-vector: 1 6 15 10
h-vector: 1 3 6 0
g-vector: 1 2
pure: True
prime: False
normal pseudomanifold: True
homology manifold: True
homology sphere: False
"""


@pytest.mark.parametrize("field", [(), ("--field", "2")])
def test_info_output_is_pinned(tmp_path, field):
    rp2 = tmp_path / "rp2.scx"
    write_scx(from_facets(RP2_FACETS), rp2)
    for path, expected in ((write_barnette(tmp_path), BARNETTE_INFO), (str(rp2), RP2_INFO)):
        result = invoke("info", path, *field)
        assert result.exit_code == 0
        assert result.output == expected


def test_info_sweeps_the_vertex_links_again_on_memo_hits(tmp_path, monkeypatch, no_shelling):
    # the elimination path, which a complex that does not shell takes
    cx = join(cycle(5), simplex_boundary(4))
    path = tmp_path / "join.scx"
    write_scx(cx, path)
    linked = record_links(monkeypatch)
    clear_memos()
    result = invoke("info", str(path))
    assert result.exit_code == 0
    assert "homology sphere: True" in result.output
    # the manifold test makes one Betti lookup per nonempty face, 340, and no
    # search, its 14 order types missing once (as in
    # test_homology_sphere_sweeps_again_on_memo_hits_alone); the sphere test
    # reads the complex's Betti numbers, then sweeps the same faces on hits
    before = memo_counts() + search_counts()
    assert before == (1 + 2 * 340, 14, 0, 0)
    assert invoke("info", str(path)).output == result.output
    # no verdict is kept: the same lookups again, every one a hit
    assert memo_counts() + search_counts() == (2 * 681, 14, 0, 0)
    assert linked == []  # no sweep builds a link complex


def test_info_on_a_shellable_sphere_judges_no_vertex_link(tmp_path, monkeypatch):
    # the normal pseudomanifold, manifold and sphere tests shell the join, so
    # info computes no Betti number and judges no link: the first test
    # searches once, and every later one finds the search in its memo
    cx = join(cycle(5), simplex_boundary(4))
    path = tmp_path / "join.scx"
    write_scx(cx, path)
    linked = record_links(monkeypatch)
    clear_memos()
    result = invoke("info", str(path))
    assert "homology manifold: True\nhomology sphere: True\n" in result.output
    assert memo_counts() + search_counts() == (0, 0, 3, 1)
    assert invoke("info", str(path)).output == result.output
    assert memo_counts() + search_counts() == (0, 0, 6, 1)
    assert linked == []


def test_one_search_serves_every_test_and_info_on_a_complex(tmp_path, cycle_join):
    # the normal pseudomanifold, manifold and sphere tests over Q and GF(2),
    # and `scx info` on the complex read back from a file, search once
    path = tmp_path / "join.scx"
    write_scx(cycle_join, path)
    clear_memos()
    assert is_normal_pseudomanifold(cycle_join)
    for field in ("rational", 2):
        assert is_homology_manifold(cycle_join, field) and is_homology_sphere(cycle_join, field)
    result = invoke("info", str(path), "--field", "2")
    assert result.exit_code == 0
    assert result.output.endswith("homology manifold: True\nhomology sphere: True\n")
    assert search_counts() == (8, 1)
    assert memo_counts() == (0, 0)
    clear_memos()


def test_input_option_and_missing_input(tmp_path):
    path = write_barnette(tmp_path)
    assert invoke("info", "--input", path).output == invoke("info", path).output
    assert invoke("gvector", "--input", path).output.strip() == "1 3 5"
    result = invoke("gvector")
    assert result.exit_code == 3
    assert "no input file given" in result.output


def test_info_notes_an_impure_complex(tmp_path):
    path = tmp_path / "impure.scx"
    write_scx(from_facets([[0, 1, 2], [2, 3]]), path)
    result = invoke("info", str(path))
    assert result.exit_code == 0
    assert result.output.splitlines()[:6] == [
        "dimension: 2",
        "f-vector: 1 4 4 1",
        "h-vector: 1 1 -1 0",
        "g-vector: 1 0",
        "note: complex is not pure; vectors use d = dim + 1",
        "pure: False",
    ]


def test_gvector_of_simplex_boundary(tmp_path):
    path = tmp_path / "bd3.scx"
    write_scx(simplex_boundary(3), path)
    result = invoke("gvector", str(path))
    assert result.exit_code == 0
    assert result.output.strip() == "1 0"


def test_link_with_absent_face_exits_3(tmp_path):
    path = write_barnette(tmp_path)
    result = invoke("link", path, "--face", "6,7")
    assert result.exit_code == 3
    assert "(6, 7)" in result.output


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661"])
@pytest.mark.parametrize(
    "command, options", [(("link",), ("--face",)), (("op", "swartz"), ("--vertex", "0", "--tau"))]
)
def test_face_options_take_ascii_digit_strings(tmp_path, command, options, token):
    result = invoke(*command, write_barnette(tmp_path), *options, f"0,{token}")
    assert result.exit_code == 2
    assert "not a face" in result.output


@pytest.mark.parametrize("token", ["\u0664", "+1_0", "\u0665"])
@pytest.mark.parametrize(
    "args",
    [("gen", "cycle"), ("missing", "{path}", "-k"), ("verify", "Lemma4.4", "--dmax"),
     ("info", "{path}", "--field")],
    ids=["gen", "option", "scale", "field"],
)
def test_integers_take_ascii_digit_strings(tmp_path, args, token):
    # click's int and int() read these as 4, 10 and 5
    path = write_barnette(tmp_path)
    result = invoke(*(a.format(path=path) for a in args), token)
    assert result.exit_code == 2
    assert repr(token) in result.output


def test_info_rejects_a_modulus_past_the_prime_test_bound(tmp_path):
    # the bound is a composite that Miller-Rabin on the bases 2..41 passes
    path = write_barnette(tmp_path)
    result = invoke("info", path, "--field", "3317044064679887385961981")
    assert result.exit_code == 3
    assert "is not below" in result.output
    assert invoke("info", path, "--field", "3").exit_code == 0


def test_info_rejects_a_composite_field_before_any_output(tmp_path):
    result = invoke("info", write_barnette(tmp_path), "--field", "1")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "1 is not prime" in result.stderr


@pytest.mark.parametrize(
    "command, options, face",
    [
        (("link",), ("--face",), "0,1,0"),
        (("op", "swartz"), ("--vertex", "0", "--tau"), "0,1,0"),
        (("op", "crtr"), ("--ball",), "star:0,1,0"),
    ],
    ids=["face", "tau", "ball"],
)
def test_face_options_reject_a_repeated_vertex(tmp_path, command, options, face):
    result = invoke(*command, write_barnette(tmp_path), *options, face)
    assert result.exit_code == 2
    assert "repeated vertex" in result.output


def test_negative_integers_reach_the_library_checks(tmp_path):
    result = invoke("missing", write_barnette(tmp_path), "-k", "-1")
    assert result.exit_code == 3
    assert "must be >= 0" in result.output


def test_missing_lists_faces(tmp_path):
    path = write_barnette(tmp_path)
    result = invoke("missing", path, "-k", "1")
    assert result.exit_code == 0
    assert result.output.strip() == "6 7"


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.scx"
    bad.write_text("0 1 1\n")
    result = invoke("info", str(bad))
    assert result.exit_code == 2
    assert "bad.scx:1" in result.output


def test_bool_vertex_label_in_json_exits_2(tmp_path):
    path = tmp_path / "b.json"
    path.write_text('{"facets": [[true, 2, 3]]}')
    result = invoke("link", str(path), "--face", "2")
    assert result.exit_code == 2
    assert "got True" in result.output


def assert_fails_cleanly(result, code, path):
    # the promised exit code and a one-line error naming the path, no traceback
    assert result.exit_code == code
    assert f"error: {path}: cannot" in result.output
    assert "Traceback" not in result.output


def test_info_of_a_directory_exits_2(tmp_path):
    assert_fails_cleanly(invoke("info", str(tmp_path)), 2, tmp_path)


def test_gvector_of_a_json_directory_exits_2(tmp_path):
    folder = tmp_path / "d.json"
    folder.mkdir()
    assert_fails_cleanly(invoke("gvector", str(folder)), 2, folder)


def test_crtr_with_a_directory_ball_exits_2(tmp_path):
    folder = tmp_path / "ball"
    folder.mkdir()
    result = invoke("op", "crtr", write_barnette(tmp_path), "--ball", str(folder))
    assert_fails_cleanly(result, 2, folder)


@pytest.mark.parametrize("name", ["bad.scx", "bad.json"])
def test_undecodable_input_exits_2(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"0 1 \xff\n")
    assert_fails_cleanly(invoke("info", str(path)), 2, path)


def test_output_under_a_missing_directory_exits_3(tmp_path):
    out = tmp_path / "missing" / "bd3.scx"
    assert_fails_cleanly(invoke("gen", "simplex-boundary", "3", "--output", str(out)), 3, out)


def test_report_under_a_missing_directory_exits_3(tmp_path):
    report = tmp_path / "missing" / "report.json"
    result = invoke(
        "verify", "Lemma4.4", "--dmax", "4", "--f0max", "8", "--cycle-max", "4",
        "--report", str(report),
    )
    assert_fails_cleanly(result, 3, report)


@pytest.mark.parametrize("text", ["", "# no facets\n\n"])
def test_info_of_an_empty_file(tmp_path, text):
    path = tmp_path / "empty.scx"
    path.write_text(text)
    result = invoke("info", str(path))
    assert result.exit_code == 0
    assert "prime: True" in result.output


def test_gen_and_op_round_trip(tmp_path):
    base = tmp_path / "bd5.scx"
    out = tmp_path / "out.scx"
    assert invoke("gen", "simplex-boundary", "5", "--output", str(base)).exit_code == 0
    result = invoke(
        "op", "crtr", str(base), "--ball", "star:0,1,2,3", "--output", str(out)
    )
    assert result.exit_code == 0
    assert "prediction holds: True" in result.output
    back = invoke("op", "sdinv", str(out), "--vertex", "6", "--check-iso", str(base))
    assert back.exit_code == 0
    assert f"isomorphic to {base}: True" in back.output


def test_check_iso_against_a_complex_of_another_type_exits_1(tmp_path):
    # the move's output is a 4-sphere and the target the boundary of the 6-simplex
    base, other = tmp_path / "bd5.scx", tmp_path / "bd6.scx"
    write_scx(simplex_boundary(5), base)
    write_scx(simplex_boundary(6), other)
    result = invoke("op", "crtr", str(base), "--ball", "star:0,1,2,3", "--check-iso", str(other))
    assert result.exit_code == 1
    assert result.output.endswith(f"isomorphic to {other}: False\n")


def test_swartz_precondition_exits_3(tmp_path):
    path = tmp_path / "cj.scx"
    assert invoke("gen", "g2one", "4", "2", "4", "--output", str(path)).exit_code == 0
    result = invoke("op", "swartz", str(path), "--vertex", "0", "--tau", "1,4,5")
    assert result.exit_code == 3
    assert "missing face" in result.output


def test_sdinv_refuses_a_fill_that_is_not_r_minus_1_stacked_exits_3(tmp_path):
    path = tmp_path / "j.scx"
    write_scx(join(join(simplex_boundary(2), simplex_boundary(2)), simplex_boundary(1)), path)
    result = invoke("op", "sdinv", str(path), "--vertex", "0", "--r", "2")
    assert result.exit_code == 3
    assert "2-stacked, not 1-stacked" in result.output and "Traceback" not in result.output


def test_sdinv_refuses_a_link_of_lower_dimension_exits_3(tmp_path):
    # an impure input: a stacked 4-sphere beside a stacked 2-sphere on 20..25
    path = tmp_path / "impure.scx"
    beside = [{v + 20 for v in f} for f in stacked_sphere(3, 6).facets]
    write_scx(from_facets([*stacked_sphere(5, 8).facets, *beside]), path)
    result = invoke("op", "sdinv", str(path), "--vertex", "20")
    assert result.exit_code == 3
    assert "link of 20 has dimension 1, not 3" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("move", [("sdinv",), ("swartz", "--all")], ids=["sdinv", "swartz-all"])
def test_a_move_at_an_absent_vertex_exits_3(tmp_path, move):
    result = invoke("op", move[0], write_bd4(tmp_path), "--vertex", "99", *move[1:])
    assert result.exit_code == 3
    assert "error: face (99,) is not in the complex" in result.output
    assert "Traceback" not in result.output


def test_exit_codes_fall_back_to_3():
    # a violated precondition, a size guard and any other ScxError exit 3
    codes = {
        errors.UnknownStatementError: 4,
        errors.InternalCheckError: 5,
        errors.ParseError: 2,
        errors.MalformedInputError: 2,
        errors.PreconditionError: 3,
        errors.FaceNotPresentError: 3,
        errors.TooLargeError: 3,
        errors.ScxError: 3,
    }
    assert {kind: _exit_code_for(kind("x")) for kind in codes} == codes


def test_swartz_all_flag(tmp_path):
    path = tmp_path / "cj.scx"
    invoke("gen", "g2one", "4", "2", "4", "--output", str(path))
    result = invoke("op", "swartz", str(path), "--vertex", "0", "--all")
    assert result.exit_code == 0
    assert "steps: 1" in result.output


def test_swartz_all_rejects_a_wedge_with_no_move_exits_3(tmp_path):
    path = tmp_path / "w.scx"
    write_scx(octahedral_wedge(), path)
    result = invoke("op", "swartz", str(path), "--vertex", "1", "--all")
    assert result.exit_code == 3
    assert "not a normal pseudomanifold" in result.output


def test_gen_barnette_matches_fixture(tmp_path):
    result = invoke("gen", "barnette")
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 19


def test_gen_barnette_refuses_parameters():
    result = invoke("gen", "barnette", "5", "7")
    assert result.exit_code == 3
    assert "barnette takes 0 integer parameter(s)" in result.output


MALFORMED = [
    (("gen", "simplex-boundary"), 3, "simplex-boundary takes 1 integer parameter(s)"),
    (("gen", "cycle", "4", "5"), 3, "cycle takes 1 integer parameter(s)"),
    (("gen", "stacked-sphere", "3"), 3, "stacked-sphere takes 2 integer parameter(s)"),
    (("gen", "cross-polytope"), 3, "cross-polytope takes 1 integer parameter(s)"),
    (("gen", "barnette", "5"), 3, "barnette takes 0 integer parameter(s)"),
    (("gen", "g2one", "4"), 3, "g2one takes 3 integer parameter(s)"),
    (("gen", "g2two", "5"), 3, "g2two takes 2 or 3 integer parameter(s)"),
    (("gen", "g2two", "4", "3", "99", "100"), 3, "g2two takes 2 or 3 integer parameter(s)"),
    (("gen", "g2two", "5", "1", "7"), 3, "triple_join takes no PARAM, got 7"),
    (("gen", "g2two", "4", "3", "99"), 3, "octahedral takes no PARAM, got 99"),
    (("info", "{dir}/nope.scx"), 2, "nope.scx: no such file"),
    (("info", "{dir}/nope.scx", "--field", "4"), 2, "nope.scx: no such file"),
    (("gvector",), 3, "no input file given"),
    (("missing", "{path}", "-k", "x"), 2, "'x' is not an integer"),
    (("link", "{path}", "--face", "6,7"), 3, "(6, 7)"),
    (("info", "{path}", "--field", "4"), 3, "4 is not prime"),
    (("op", "sdinv", "{path}", "--vertex", "0", "--r", "1"), 3, "r=1 outside"),
    (("op", "swartz", "{path}", "--vertex", "0"), 3, "provide --tau or --all"),
    (("stress", "{path}", "--trials", "0"), 3, "need at least one trial"),
]


@pytest.mark.parametrize(
    "args, code, message", MALFORMED, ids=[" ".join(args) for args, _, _ in MALFORMED]
)
def test_malformed_arguments_exit_2_or_3_without_a_traceback(tmp_path, args, code, message):
    path = write_barnette(tmp_path)
    result = invoke(*(a.format(path=path, dir=tmp_path) for a in args))
    assert (result.exit_code, result.stdout) == (code, "")
    assert message in result.stderr and "Traceback" not in result.stderr


def test_unknown_generator_exits_3():
    assert invoke("gen", "dodecahedron").exit_code == 3


def test_gen_suspension_without_its_param_exits_3():
    result = invoke("gen", "g2two", "5", "2")
    assert result.exit_code == 3
    assert "needs PARAM" in result.output


@pytest.mark.parametrize(
    "params, message",
    [
        (("g2one", "5", "3", "1"), "unknown VARIANT 3; VARIANT 1=join 2=cycle"),
        (
            ("g2two", "5", "9"),
            "unknown KIND 9; KIND 1=triple_join 2=suspension 3=octahedral 4=crtr_ridge",
        ),
    ],
    ids=["g2one", "g2two"],
)
def test_gen_names_an_unknown_number_and_its_table(params, message):
    result = invoke("gen", *params)
    assert result.exit_code == 3
    assert message in result.output


def test_verify_single_statement(tmp_path):
    report = tmp_path / "report.json"
    result = invoke(
        "verify", "Lemma4.4", "--dmax", "4", "--f0max", "8", "--cycle-max", "4",
        "--report", str(report),
    )
    assert result.exit_code == 0
    assert "[PASS] Lemma4.4" in result.output
    payload = json.loads(report.read_text())
    assert payload[0]["statement"] == "Lemma4.4"
    assert payload[0]["failures"] == []


@pytest.mark.parametrize(
    "dmax, empty",
    [
        (3, "Theorem2.3, Lemma4.1, Prop4.2, Theorem4.5, Theorem5.4, Theorem5.5, Corollary5.6"),
        (4, "Theorem4.5, Theorem5.4"),
    ],
)
def test_a_scale_that_gives_statements_no_instance_exits_3(tmp_path, dmax, empty):
    # no instance was refuted: every report is printed and written, and the
    # statements with no instance are named
    report = tmp_path / "report.json"
    result = invoke("verify-all", "--dmax", str(dmax), "--report", str(report))
    assert result.exit_code == 3
    assert f"error: no instances at this scale for {empty}\n" in result.output
    failed = empty.count(",") + 1
    assert f"{16 - failed}/16 statements passed" in result.output
    payload = json.loads(report.read_text())
    assert len(payload) == 16
    assert ", ".join(d["statement"] for d in payload if d["instances"] == 0) == empty


def test_a_refuted_instance_exits_1_beside_statements_with_none(tmp_path, monkeypatch):
    # a planted bound one too low refutes Lemma4.4 at the scale where two
    # statements get no instance
    original = verify.macaulay_pseudopower
    monkeypatch.setattr(verify, "macaulay_pseudopower", lambda *args: original(*args) - 1)
    result = invoke("verify-all", "--dmax", "4")
    assert result.exit_code == 1
    assert "[FAIL] Lemma4.4" in result.output
    assert "13/16 statements passed" in result.output
    assert "error:" not in result.output


def test_verify_all_writes_the_reports_of_run_all(tmp_path):
    report = tmp_path / "report.json"
    result = invoke("verify-all", "--report", str(report))
    assert result.exit_code == 0
    assert "16/16 statements passed" in result.output

    def timeless(dicts):
        return [{k: v for k, v in d.items() if k != "seconds"} for d in dicts]

    expected = json.loads(json.dumps([rep.to_dict() for rep in run_all()]))
    assert timeless(json.loads(report.read_text())) == timeless(expected)


def test_verify_unknown_statement_exits_4():
    assert invoke("verify", "LemmaX").exit_code == 4


def test_statements_listing():
    result = invoke("statements")
    assert result.exit_code == 0
    assert "Lemma3.3" in result.output.split()


def test_stress_command(tmp_path):
    path = tmp_path / "cj.scx"
    invoke("gen", "g2one", "4", "2", "4", "--output", str(path))
    result = invoke("stress", str(path))
    assert result.exit_code == 0
    assert "dimension: 1" in result.output
    assert "non-participating vertices: none" in result.output


def test_stress_output_is_pinned_on_the_catalog(tmp_path):
    # sha256 of `scx stress` on the 29 catalog pseudomanifolds with g2 >= 1 at
    # seeds 0-2, as printed when every rank reduced all columns in vertex order
    digest = hashlib.sha256()
    pseudomanifolds = [
        e.complex
        for e in standard_catalog()
        if "normal-pm" in e.tags and facevectors.g2(e.complex) >= 1
    ]
    assert len(pseudomanifolds) == 29
    for i, cx in enumerate(pseudomanifolds):
        path = tmp_path / f"{i}.scx"
        write_scx(cx, path)
        for seed in range(3):
            result = invoke("stress", str(path), "--seed", str(seed))
            assert result.exit_code == 0
            digest.update(result.output.encode())
    assert digest.hexdigest() == (
        "84985f5855cfcdd681ef2d7e2a1c6cbdece721aa2c6a0bc45e234df0a53a0a05"
    )


def test_stress_with_no_trials_exits_3(tmp_path):
    path = tmp_path / "bd4.scx"
    write_scx(simplex_boundary(4), path)
    result = invoke("stress", str(path), "--trials", "0")
    assert result.exit_code == 3
    assert "need at least one trial" in result.output


def test_stress_defaults_to_three_trials():
    (trials,) = [p for p in main.commands["stress"].params if p.name == "trials"]
    assert trials.default == 3


def _reached(*args, **kwargs):
    raise AssertionError("elimination reached")


@pytest.fixture
def no_bareiss(monkeypatch):
    """Make Bareiss raise if reached, so a test sees a stress guard or
    shortcut fire after the rank mod p (``exact._reduce``) but before any
    other elimination, without reading a clock."""
    monkeypatch.setattr(exact, "_bareiss", _reached)


@pytest.fixture
def no_elimination(no_bareiss, monkeypatch):
    """Make every elimination raise if reached, the column reduction that
    ranks Betti columns and rigidity matrices included, so a test sees a
    guard fire before any elimination."""
    monkeypatch.setattr(exact, "_reduce", _reached)


def test_stress_of_a_stacked_sphere_has_dimension_0(tmp_path, no_bareiss):
    # full rank mod p proves the empty basis; Bareiss would take about 3 s on
    # this input's 230 x 240 rigidity matrix
    path = tmp_path / "stacked.scx"
    invoke("gen", "stacked-sphere", "4", "60", "--output", str(path))
    result = invoke("stress", str(path))
    assert result.exit_code == 0
    assert "dimension: 0" in result.output


def test_stress_guard_exits_3(tmp_path, no_bareiss):
    # the smallest g2 = 1 cycle join whose tight rigidity matrix, (4n + 2) x
    # (4n + 3), is over the guard; one size below, the stress solve takes
    # about 0.4 s
    n = next(n for n in range(4, 200) if (4 * n + 2) * (4 * n + 3) > RIGIDITY_GUARD)
    path = tmp_path / "cycle-join.scx"
    write_scx(g2_one_family(4, "cycle", n).complex, path)
    result = invoke("stress", str(path))
    assert result.exit_code == 3
    assert "stress guard" in result.output


def test_closure_guard_exits_3(tmp_path):
    # one facet on 30 vertices: the closure would hold 2**30 faces
    path = tmp_path / "simplex29.scx"
    path.write_text(" ".join(str(v) for v in range(30)) + "\n")
    result = invoke("gvector", str(path))
    assert result.exit_code == 3
    assert "closure bound" in result.output


def test_gen_checks_the_closure_guard_first():
    # 2^9 facets of 9 vertices: the closure bound is 4^9, twice the guard
    result = invoke("gen", "cross-polytope", "9")
    assert result.exit_code == 3
    assert "closure bound" in result.output


def test_betti_guard_exits_3(tmp_path, no_elimination):
    # one facet on 16 vertices and an isolated vertex: the closure (2**16 + 2
    # faces) is within its guard and the search does not shell it, so the
    # sphere test reads its Betti numbers, which need a 12870 x 11440 matrix
    path = tmp_path / "simplex15.scx"
    path.write_text(" ".join(str(v) for v in range(16)) + "\n16\n")
    result = invoke("info", str(path))
    assert result.exit_code == 3
    assert "Betti guard" in result.output


def test_vertex_link_past_the_betti_guard_exits_3(tmp_path, monkeypatch, no_shelling):
    # the 4-simplex-boundary vertex links need 100 cells in d_2; their own
    # vertex links, tetrahedron boundaries, are shelled with no Betti numbers
    path = tmp_path / "bd5.scx"
    write_scx(simplex_boundary(5), path)
    clear_memos()
    monkeypatch.setattr(homology, "BETTI_GUARD", 10)
    for _ in range(2):
        result = invoke("info", str(path))
        assert result.exit_code == 3
        assert "Betti guard" in result.output
    assert homology._betti.cache_info().currsize == 0  # no profile is kept


def test_isomorphism_guard_exits_3(tmp_path, monkeypatch):
    base, target = tmp_path / "bd5.scx", tmp_path / "join.scx"
    write_scx(simplex_boundary(5), base)
    write_scx(join(simplex_boundary(3), simplex_boundary(2)), target)
    args = ("op", "crtr", str(base), "--ball", "star:0,1,2,3", "--check-iso", str(target))
    assert f"isomorphic to {target}: True" in invoke(*args).output
    monkeypatch.setattr(isomorphism, "ISOMORPHISM_GUARD", 3)  # 7 vertices to place
    result = invoke(*args)
    assert result.exit_code == 3
    assert "isomorphism guard" in result.output


def test_failed_certificate_exits_5(tmp_path, monkeypatch):
    monkeypatch.setattr(facevectors, "_g_direct", lambda f, j: -1)
    path = tmp_path / "bd3.scx"
    write_scx(simplex_boundary(3), path)
    result = invoke("gvector", str(path))
    assert result.exit_code == 5
    assert "g-vector routes disagree" in result.output


def test_info_on_the_8_cross_polytope_reads_no_betti_number(tmp_path):
    # the boundary of the 8-dimensional cross polytope shells, so its sphere
    # line needs no Betti numbers, which would take 3,211,264 cells
    path = tmp_path / "cross8.scx"
    write_scx(cross_polytope_boundary(8), path)
    result = invoke("info", str(path))
    assert result.exit_code == 0
    assert result.output.endswith("homology manifold: True\nhomology sphere: True\n")


def test_failed_shelling_certificate_exits_5(tmp_path, monkeypatch):
    # with the test that S lies in no placed facet dropped, the search
    # "shells" the torus, which the h-vector certificate refuses
    monkeypatch.setattr(homology, "_shelling", shells_without_the_s_test())
    path = tmp_path / "torus.scx"
    write_scx(from_facets(TORUS_7), path)
    clear_memos()
    result = invoke("info", str(path))
    assert result.exit_code == 5
    assert "differ from the h-vector" in result.output


def test_failed_boundary_certificate_exits_5(tmp_path, no_shelling, flipped_d1):
    # with no shelling, so that the sphere test reads the Betti numbers; in
    # dimension 3, as a sphere verdict below it shells even so
    path = tmp_path / "bd4.scx"
    write_scx(simplex_boundary(4), path)
    result = invoke("info", str(path))
    assert result.exit_code == 5
    assert "do not compose to zero" in result.output


# Full output and written file of each retriangulation command, as the
# closure-built operations gave them.
OP_CASES = {
    "crtr": (
        ("op", "crtr", "bd5.scx", "--ball", "star:0,1,2,3", "--output", "out.scx"),
        "kind: central\ng before: 1 0 0\ng after: 1 1 1\npredicted: g1=1 g2=1\n"
        "prediction holds: True\nnew vertices: 6\nwrote out.scx\n",
        "0 1 2 4 5\n0 1 2 4 6\n0 1 2 5 6\n0 1 3 4 5\n0 1 3 4 6\n0 1 3 5 6\n"
        "0 2 3 4 5\n0 2 3 4 6\n0 2 3 5 6\n1 2 3 4 5\n1 2 3 4 6\n1 2 3 5 6\n",
    ),
    "sdinv": (
        ("op", "sdinv", "out.scx", "--vertex", "6", "--check-iso", "bd5.scx",
         "--output", "back.scx"),
        "kind: inverse-stellar\ng before: 1 1 1\ng after: 1 0 0\npredicted: g1=0 g2=0\n"
        "prediction holds: True\nremoved vertices: 6\nwrote back.scx\n"
        "isomorphic to bd5.scx: True\n",
        "0 1 2 3 4\n0 1 2 3 5\n0 1 2 4 5\n0 1 3 4 5\n0 2 3 4 5\n1 2 3 4 5\n",
    ),
    "swartz-tau-filled": (
        ("op", "swartz", "cj.scx", "--vertex", "0", "--tau", "5,6,7", "--output", "sw.scx"),
        "kind: swartz\ng before: 1 3 1\ng after: 1 2 0\npredicted: g2=0\n"
        "prediction holds: True\nremoved vertices: 0\nsteps: 1\n"
        "note: filled missing facet\nnote: filled missing facet\nwrote sw.scx\n",
        "1 2 5 6\n1 2 5 7\n1 2 6 7\n1 5 6 7\n2 3 5 6\n2 3 5 7\n2 3 6 7\n"
        "3 4 5 6\n3 4 5 7\n3 4 6 7\n4 5 6 7\n",
    ),
    "swartz-tau-coned": (
        ("op", "swartz", "hex.scx", "--vertex", "6", "--tau", "0,2", "--output", "sw.scx"),
        "kind: swartz\ng before: 1 4\ng after: 1 4\npredicted: (none)\n"
        "prediction holds: True\nnew vertices: 8\nremoved vertices: 6\nsteps: 1\n"
        "note: filled missing facet\nnote: coned with vertex 8\nwrote sw.scx\n",
        "0 1 2\n0 1 7\n0 2 8\n0 5 7\n0 5 8\n1 2 7\n2 3 7\n2 3 8\n3 4 7\n3 4 8\n"
        "4 5 7\n4 5 8\n",
    ),
    "swartz-all": (
        ("op", "swartz", "susp.scx", "--vertex", "6", "--all", "--output", "swall.scx"),
        "kind: swartz\ng before: 1 3 2\ng after: 1 2 0\npredicted: g2=0\n"
        "prediction holds: True\nremoved vertices: 6\nsteps: 2\n"
        "note: filled missing facet\nnote: coned with vertex 8\n"
        "note: filled missing facet\nnote: filled missing facet\nwrote swall.scx\n",
        "0 1 2 3\n0 1 2 7\n0 1 3 7\n0 2 3 7\n1 2 3 4\n1 2 4 7\n1 3 4 7\n2 3 4 5\n"
        "2 3 5 7\n2 4 5 7\n3 4 5 7\n",
    ),
}


@pytest.mark.parametrize("case", list(OP_CASES))
def test_op_outputs_are_pinned(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    write_scx(simplex_boundary(5), "bd5.scx")
    write_scx(g2_one_family(4, "cycle", 5).complex, "cj.scx")
    write_scx(suspension(cycle(6)), "hex.scx")
    write_scx(suspension(stacked_sphere(3, 6)), "susp.scx")
    if case == "sdinv":
        assert invoke(*OP_CASES["crtr"][0]).exit_code == 0
    args, stdout, written = OP_CASES[case]
    result = invoke(*args)
    assert result.exit_code == 0
    assert result.output == stdout
    assert (tmp_path / args[-1]).read_text() == written


def write_bd4(tmp_path):
    path = tmp_path / "bd4.scx"
    write_scx(simplex_boundary(4), path)
    return str(path)


def test_crtr_along_a_vertex_star_prints_the_vertex_removed(tmp_path):
    result = invoke("op", "crtr", write_bd4(tmp_path), "--ball", "star:0")
    assert result.exit_code == 0
    assert "new vertices: 5\n" in result.output
    assert "removed vertices: 0\n" in result.output


def test_swartz_all_without_a_move_prints_no_removed_vertex(tmp_path):
    result = invoke("op", "swartz", write_bd4(tmp_path), "--vertex", "0", "--all")
    assert result.exit_code == 0
    assert "g after: 1 0 0\n" in result.output
    assert "removed vertices" not in result.output and "steps" not in result.output
