import pytest

from scx import (
    InternalCheckError,
    ParseError,
    PreconditionError,
    from_facets,
    load_fixture,
    simplex_boundary,
)
from scx.fileio import (
    load_complex,
    read_json_text,
    read_scx,
    read_scx_text,
    write_complex,
    write_json_text,
    write_scx,
    write_scx_text,
)


def test_read_with_comments_and_blanks():
    text = "# a comment\n\n0 1 2\n0 1 3\n  # another\n0 2 3\n1 2 3\n"
    assert read_scx_text(text) == simplex_boundary(3)


def test_read_errors_name_the_line():
    with pytest.raises(ParseError, match=":2:"):
        read_scx_text("0 1\n1 1 2\n")
    with pytest.raises(ParseError, match=":1:"):
        read_scx_text("0 x\n")
    with pytest.raises(ParseError, match=":3:"):
        read_scx_text("0 1\n1 2\n-1 2\n")


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "9" * 5000])
def test_labels_are_ascii_digit_strings(token):
    # int() reads the first three as 10, 1 and 1, which write back as other
    # bytes, and refuses the last as too long to convert
    with pytest.raises(ParseError, match=":2:"):
        read_scx_text(f"0 1\n{token} 2\n")


@pytest.mark.parametrize(
    "separator", ["\u2028", "\u2029", "\u0085", "\u00a0", "\u3000", "\u1680", "\x1c"]
)
def test_only_ascii_whitespace_separates(separator):
    # str.splitlines() and str.split() break at each of these, so the file
    # would load and write back as other bytes
    for text in (f"0 1 2\n0 1 3{separator}1 2 3\n", f"0 1 2\n0{separator}1 3\n"):
        with pytest.raises(ParseError, match=":2:"):
            read_scx_text(text)


def test_crlf_tabs_and_form_feeds_still_separate(tmp_path, bd3):
    text = "# c\r\n0 1 2\r\n0\t1 3\r\n\r\n 0 2\v3\f\r\n1 2 3"
    assert read_scx_text(text) == bd3
    path = tmp_path / "crlf.scx"
    path.write_bytes(text.encode())
    assert load_complex(path) == bd3


def test_a_file_reads_as_its_text(tmp_path):
    # universal newlines would end a line at the lone CR, which read_scx_text does not
    path = tmp_path / "cr.scx"
    path.write_bytes(b"0 1 2\r0 1 3\n")
    with pytest.raises(ParseError, match="cr.scx:1: repeated vertex"):
        load_complex(path)


def test_write_is_canonical(bd3):
    text = write_scx_text(bd3)
    assert text == "0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
    assert read_scx_text(text) == bd3
    assert write_scx_text(read_scx_text(text)) == text


def test_empty_complex_round_trip():
    cx = from_facets([])
    assert write_scx_text(cx) == ""
    assert read_scx_text("") == cx


def test_json_round_trip(oct3):
    text = write_json_text(oct3)
    assert read_json_text(text) == oct3
    with pytest.raises(ParseError):
        read_json_text("[1, 2]")
    with pytest.raises(ParseError):
        read_json_text("{\"facets\": [[0, 0]]}")
    with pytest.raises(ParseError):
        read_json_text("not json")


def test_load_complex_dispatch(tmp_path, bd3):
    scx_path = tmp_path / "c.scx"
    json_path = tmp_path / "c.json"
    write_complex(bd3, scx_path)
    write_complex(bd3, json_path)
    assert load_complex(scx_path) == bd3
    assert load_complex(json_path) == bd3
    assert scx_path.read_text() == write_scx_text(bd3)
    with pytest.raises(ParseError):
        load_complex(tmp_path / "missing.scx")


def test_read_scx_maps_read_failures_as_load_complex_does(tmp_path):
    missing = tmp_path / "missing.scx"
    for read in (read_scx, load_complex):
        with pytest.raises(ParseError, match=f"^{missing}: no such file$"):
            read(missing)
        with pytest.raises(ParseError, match=f"^{tmp_path}: cannot read: Is a directory$"):
            read(tmp_path)


def test_write_scx_maps_write_failures_as_write_complex_does(tmp_path, bd3):
    for write in (write_scx, write_complex):
        with pytest.raises(PreconditionError, match=f"^{tmp_path}: cannot write: Is a directory$"):
            write(bd3, tmp_path)


def test_load_fixture_with_sidecar(tmp_path, bd3):
    path = tmp_path / "thing.scx"
    path.write_text(write_scx_text(bd3))
    (tmp_path / "thing.meta.json").write_text(
        '{"name": "boundary", "f_vector": [1, 4, 6, 4], "g2": 0, "tags": ["sphere"]}'
    )
    entry = load_fixture(path)
    assert entry.name == "boundary"
    assert "sphere" in entry.tags


def test_load_fixture_catches_wrong_expectations(tmp_path, bd3):
    path = tmp_path / "bad.scx"
    path.write_text(write_scx_text(bd3))
    (tmp_path / "bad.meta.json").write_text('{"g2": 7}')
    with pytest.raises(InternalCheckError, match="bad: g2 0 != expected 7"):
        load_fixture(path)
