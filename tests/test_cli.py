import json
import time

import pytest
from click.testing import CliRunner

from scx import (
    barnette_sphere,
    cycle,
    facevectors,
    from_facets,
    homology,
    join,
    simplex_boundary,
    write_scx,
)
from scx import cli
from scx.cli import main
from test_homology import RP2_FACETS


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


def test_info_computes_one_betti_per_face(tmp_path, monkeypatch):
    cx = join(cycle(5), simplex_boundary(4))
    path = tmp_path / "join.scx"
    write_scx(cx, path)
    calls = []
    original = homology.betti

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(homology, "betti", counting)
    monkeypatch.setattr(cli, "betti", counting)
    result = invoke("info", str(path))
    assert result.exit_code == 0
    assert "homology sphere: True" in result.output
    assert len(calls) == len(cx.faces()) == 341


def test_input_option_and_missing_input(tmp_path):
    path = write_barnette(tmp_path)
    assert invoke("info", "--input", path).output == invoke("info", path).output
    assert invoke("gvector", "--input", path).output.strip() == "1 3 5"
    result = invoke("gvector")
    assert result.exit_code == 3
    assert "no input file given" in result.output


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


def test_swartz_precondition_exits_3(tmp_path):
    path = tmp_path / "cj.scx"
    assert invoke("gen", "g2one", "4", "2", "4", "--output", str(path)).exit_code == 0
    result = invoke("op", "swartz", str(path), "--vertex", "0", "--tau", "1,4,5")
    assert result.exit_code == 3
    assert "missing face" in result.output


def test_swartz_all_flag(tmp_path):
    path = tmp_path / "cj.scx"
    invoke("gen", "g2one", "4", "2", "4", "--output", str(path))
    result = invoke("op", "swartz", str(path), "--vertex", "0", "--all")
    assert result.exit_code == 0
    assert "steps: 1" in result.output


def test_gen_barnette_matches_fixture(tmp_path):
    result = invoke("gen", "barnette")
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 19


def test_unknown_generator_exits_3():
    assert invoke("gen", "dodecahedron").exit_code == 3


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


def test_closure_guard_exits_3(tmp_path):
    # one facet on 30 vertices: the closure would hold 2**30 faces
    path = tmp_path / "simplex29.scx"
    path.write_text(" ".join(str(v) for v in range(30)) + "\n")
    result = invoke("gvector", str(path))
    assert result.exit_code == 3
    assert "closure bound" in result.output


def test_betti_guard_exits_3(tmp_path):
    # one facet on 16 vertices: the closure (2**16 faces) is within its guard,
    # but the Betti numbers of the link of vertex 0 need a 6435 x 6435 matrix
    path = tmp_path / "simplex15.scx"
    path.write_text(" ".join(str(v) for v in range(16)) + "\n")
    start = time.perf_counter()
    result = invoke("info", str(path))
    assert time.perf_counter() - start < 2
    assert result.exit_code == 3
    assert "Betti guard" in result.output


def test_failed_certificate_exits_5(tmp_path, monkeypatch):
    monkeypatch.setattr(facevectors, "_g_direct", lambda f, j: -1)
    path = tmp_path / "bd3.scx"
    write_scx(simplex_boundary(3), path)
    result = invoke("gvector", str(path))
    assert result.exit_code == 5
    assert "g-vector routes disagree" in result.output


def test_failed_boundary_certificate_exits_5(tmp_path, flipped_d1):
    path = tmp_path / "bd3.scx"
    write_scx(simplex_boundary(3), path)
    result = invoke("info", str(path))
    assert result.exit_code == 5
    assert "do not compose to zero" in result.output
