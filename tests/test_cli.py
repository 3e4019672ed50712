import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords.cli import main
from nanowords.errors import ParseError
from nanowords.moves import PAIR_KINDS, TRIPLE_KINDS, parse_move
from nanowords.records import parse_record

ABAB_FREE = """\
alphabet: a A b B
involution: a<->A b<->B
word: X Y X Y
proj: X=a Y=b
"""

ABAB_ID = """\
alphabet: a b
involution: a<->a b<->b
word: A B A B
proj: A=a B=b
"""

AABB_ID = """\
alphabet: a b
involution: a<->a b<->b
word: A A B B
proj: A=a B=b
"""

PLAIN = """\
alphabet: a b
involution: a<->a b<->b
plainword: aabab
"""

COVER = """\
alphabet: a b
involution: a<->a b<->b
word: A1 B1 B2 A2 A1 A3 B1 A3 A2 B2
proj: A1=a A2=a A3=a B1=b B2=b
"""

ALPHA_ONLY = """\
alphabet: a b
involution: a<->a b<->b
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_record_roundtrip():
    rec = parse_record(ABAB_FREE)
    assert rec.alphabet.letters == ("a", "A", "b", "B")
    assert rec.alphabet.tau("a") == "A"
    w = rec.nanoword()
    assert w.canonical().word == ("1", "2", "1", "2")


def test_parse_record_plainword_desingularizes():
    rec = parse_record(PLAIN)
    w = rec.nanoword()
    assert len(w.word) == 8  # aabab has multiplicities 3 and 2


def test_parse_record_orientation_default():
    rec = parse_record("alphabet: x y\ninvolution: x<->y\n")
    assert rec.alphabet.orientation == ("x",)
    rec2 = parse_record("alphabet: x y\ninvolution: x<->y\norientation: y\n")
    assert rec2.alphabet.orientation == ("y",)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_record("alphabet: a b\ninvolution: a<->c b<->b\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_record("involution: a<->a\n")
    with pytest.raises(ParseError) as err:
        parse_record("alphabet: a\ninvolution: a<->a\nword: A A\n")
    assert "proj" in str(err.value)
    with pytest.raises(ParseError):
        parse_record("alphabet: a\nnonsense: 1\n")


def test_cli_invariants(tmp_path, capsys):
    path = _write(tmp_path, "w.rec", ABAB_FREE)
    assert main(["invariants", path]) == 0
    out = capsys.readouterr().out
    assert "gamma:  z_a z_b z_a^-1 z_b^-1" in out
    assert "lambda:" in out
    assert "charseq" in out


def test_cli_invariants_beta_flag(tmp_path, capsys):
    path = _write(tmp_path, "w.rec", ABAB_FREE)
    assert main(["invariants", path, "--beta", "a,A"]) == 0
    out = capsys.readouterr().out
    assert "nabla+_[A a]" in out and "nabla+_[A B a b]" not in out


def test_cli_contract_and_verify(tmp_path, capsys):
    path = _write(tmp_path, "w.rec", AABB_ID)
    cert = str(tmp_path / "c.cert")
    assert main(["contract", path, "--cert", cert]) == 0
    out = capsys.readouterr().out
    assert "CONTRACTIBLE" in out
    assert main(["verify-cert", path, cert]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_cli_contract_unknown_exit(tmp_path, capsys):
    path = _write(tmp_path, "w.rec", ABAB_ID)
    code = main(["contract", path, "--max-states", "200"])
    assert code == 2
    assert "UNKNOWN" in capsys.readouterr().out


def test_cli_homotopic_non_homotopic(tmp_path, capsys):
    p1 = _write(tmp_path, "w1.rec", ABAB_ID)
    p2 = _write(tmp_path, "w2.rec", AABB_ID)
    assert main(["homotopic", p1, p2]) == 0
    assert "NON-HOMOTOPIC" in capsys.readouterr().out


def test_cli_homotopic_stops_at_the_first_separating_field(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a field past gamma was computed")
    for name in ("nabla", "lambda_invariant", "count_colorings"):
        monkeypatch.setattr(f"nanowords.fingerprint.{name}", unreachable)
    p1 = _write(tmp_path, "w1.rec", ABAB_ID)
    p2 = _write(tmp_path, "w2.rec", AABB_ID)
    assert main(["homotopic", p1, p2]) == 0
    assert capsys.readouterr().out == "NON-HOMOTOPIC (separated by gamma)\n"


def test_cli_homotopic_certificate(tmp_path, capsys):
    # over tau = swap, aabab and babaa are the exceptional merged pair
    swap1 = "alphabet: a b\ninvolution: a<->b\nplainword: aabab\n"
    swap2 = "alphabet: a b\ninvolution: a<->b\nplainword: babaa\n"
    p1 = _write(tmp_path, "w1.rec", swap1)
    p2 = _write(tmp_path, "w2.rec", swap2)
    cert = str(tmp_path / "h.cert")
    assert main(["homotopic", p1, p2, "--max-states", "120000",
                 "--cert", cert]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "HOMOTOPIC"
    assert main(["verify-cert", p1, cert, "--target", p2]) == 0
    assert "VERIFIED" in capsys.readouterr().out
    # at tau = id the same two words are separated by an invariant
    q1 = _write(tmp_path, "v1.rec", PLAIN)
    plain2 = "alphabet: a b\ninvolution: a<->a b<->b\nplainword: babaa\n"
    q2 = _write(tmp_path, "v2.rec", plain2)
    assert main(["homotopic", q1, q2]) == 0
    assert capsys.readouterr().out.startswith("NON-HOMOTOPIC")


def test_cli_missing_certificate_is_clean_error(tmp_path, capsys):
    p1 = _write(tmp_path, "w.rec", ABAB_ID)
    assert main(["verify-cert", p1, str(tmp_path / "nope.cert")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_covering(tmp_path, capsys):
    path = _write(tmp_path, "w.rec", COVER)
    assert main(["covering", path, "--subgroup", "ab"]) == 0
    out = capsys.readouterr().out
    assert "covering: 1 2 3 1 3 2" in out


def test_cli_colorings(tmp_path, capsys):
    path = _write(tmp_path, "w.rec", ABAB_ID)
    assert main(["colorings", path, "--beta", "a", "--tricolor"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3
    assert all(len(r.split()) == 3 for r in rows)


def test_cli_nabla_lambda_charseq_norm(tmp_path, capsys):
    path = _write(tmp_path, "w.rec", ABAB_FREE)
    assert main(["nabla", path, "--beta", "all", "--sign", "-"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["lambda", path]) == 0
    assert "lambda_11 = 0" in capsys.readouterr().out
    assert main(["charseq", path]) == 0
    assert "+a, +b." in capsys.readouterr().out
    assert main(["norm", path, "--max-states", "2000"]) == 0
    out = capsys.readouterr().out
    assert "norm >= 2" in out and "norm <= 2" in out


def test_cli_classify(tmp_path, capsys):
    path = _write(tmp_path, "al.rec", ALPHA_ONLY)
    assert main(["classify", "nanowords4", path]) == 0
    out = capsys.readouterr().out
    assert "AGREES" in out and "nanowords4" in out


def test_cli_json_lines(tmp_path, capsys):
    path = _write(tmp_path, "w.rec", ABAB_ID)
    assert main(["--format", "json-lines", "colorings", path,
                 "--beta", "a", "--tricolor"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert "counts" in record


def test_cli_error_exit(tmp_path, capsys):
    bad = _write(tmp_path, "bad.rec", "alphabet: a\ninvolution: a<->b\n")
    assert main(["invariants", bad]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "M2- pos=1",          # no @pos
    "M1-",                # no fields at all
    "M3- @pos=(1,2)",     # too few positions for a triple move
    "M1- @pos=(1,2)",     # too many positions for M1
    "M2- @pos=(0,3)",     # positions are 1-based
    "M2- @pos=(x,3)",     # not an integer
    "M1+ @pos=1",         # insertion without a value
    "M2+ @pos=(1,1) insert=(a,b)",
    "M1- @pos=1 junk",    # field without '='
    "M9+ @pos=1",         # unknown kind
    "M1- @pos=1 foo=bar",             # unknown field
    "M1- @pos=1 @pos=2",              # repeated field
    "M2- @pos=(1,3) insert=(zz)",     # a deletion inserts nothing
    "M3- @pos=(1,3,5) insert=(a)",    # nor does a triple move
])
def test_cli_verify_cert_rejects_malformed_lines(tmp_path, capsys, line):
    path = _write(tmp_path, "w.rec", AABB_ID)
    cert = _write(tmp_path, "c.cert", f"# header\n{line}\n")
    assert main(["verify-cert", path, cert]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and "Traceback" not in err


@pytest.mark.parametrize("lines, bad, message", [
    (["M1+ @pos=1 insert=(q)"], 2, "insert value 'q' is not an alphabet letter"),
    (["M1- @pos=1", "M3- @pos=(1,3,5)"], 3, "M3- @pos=(1,3,5): sites overlap or overflow"),
    (["M1- @pos=2"], 2, "M1- @pos=2: no doubled letter here"),
])
def test_cli_verify_cert_reports_moves_that_do_not_apply(tmp_path, capsys, lines, bad,
                                                         message):
    path = _write(tmp_path, "w.rec", "alphabet: a b\ninvolution: a<->a b<->b\n"
                                     "word: 1 1\nproj: 1=a\n")
    cert = _write(tmp_path, "c.cert", "# header\n" + "\n".join(lines) + "\n")
    assert main(["verify-cert", path, cert]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {bad}: ") and message in err
    assert "Traceback" not in err and "'+'" not in err


@given(st.text())
@settings(max_examples=300, deadline=None)
def test_parse_record_fuzz(text):
    try:
        parse_record(text)
    except ParseError:
        pass


_MOVE_HEADS = st.sampled_from([f"{k}{s}" for k in PAIR_KINDS + TRIPLE_KINDS for s in "+-"])


@given(st.one_of(st.text(), st.builds(lambda head, rest: f"{head} {rest}", _MOVE_HEADS,
                                      st.text())))
@settings(max_examples=300, deadline=None)
def test_parse_move_fuzz(text):
    try:
        parse_move(text)
    except ParseError:
        pass
