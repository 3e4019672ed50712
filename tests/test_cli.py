import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords import Alphabet, HomotopyData, enumerate_moves
from nanowords import cli
from nanowords.cli import SHORT_SEARCH_STATES, build_parser, main
from nanowords.errors import ParseError
from nanowords.moves import PAIR_KINDS, TRIPLE_KINDS, parse_move
from nanowords.records import parse_file, parse_record

from conftest import ALPHABETS, random_nanoword
from oracles import cmd_homotopic_fingerprint_first

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

ABAB_M1 = """\
alphabet: a b
involution: a<->a b<->b
word: A B C C A B
proj: A=a B=b C=b
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
    with pytest.raises(ParseError) as err:
        parse_record("alphabet: a b\norientation: a b a\n")
    assert err.value.line == 2 and "orientation" in str(err.value)


@pytest.mark.parametrize("text, line", [
    ("alphabet: a b\nplainword: ab\nproj: A=a\n", 3),       # proj would be dropped
    ("alphabet: a b\nproj: A=a\nplainword: ab\n", 2),
    ("alphabet: a b\nword: A B A B\nproj: A=a B=b A=b\n", 3),  # A projected twice
])
def test_parse_record_rejects_ambiguous_projections(text, line):
    with pytest.raises(ParseError) as err:
        parse_record(text)
    assert err.value.line == line


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


@pytest.mark.parametrize("beta, message", [
    ("z", "'z' is not an alphabet letter"),          # its complement is alpha
    ("a,A,b,B,z", "'z' is not an alphabet letter"),  # its complement is empty
    ("a,b,z", "'z' is not an alphabet letter"),      # the letters are checked first
    ("a", "beta must be tau-invariant"),
])
def test_cli_invariants_rejects_bad_betas(tmp_path, capsys, beta, message):
    """Every --beta is checked, also one whose nabla the row would read off
    its complement's."""
    path = _write(tmp_path, "w.rec", ABAB_FREE)
    assert main(["invariants", path, "--beta", beta]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and "nabla" not in captured.out


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


def test_cli_contract_with_no_insert_letters(tmp_path, capsys):
    """``--insert ""`` allows no insertion letters at all.  Without macros,
    A B A B over a<->b contracts only through an insertion, so the search
    with no letters ends UNKNOWN."""
    path = _write(tmp_path, "w.rec", "alphabet: a b\ninvolution: a<->b\n"
                                     "word: A B A B\nproj: A=a B=b\n")
    assert main(["contract", path, "--no-macros"]) == 0
    assert "insert=(b)" in capsys.readouterr().out
    assert main(["contract", path, "--no-macros", "--insert", ""]) == 2
    assert capsys.readouterr().out == "UNKNOWN (budget exhausted)\n"


@pytest.mark.parametrize("argv, message", [
    (["contract", "{aa}", "--insert", "q"], "insert value 'q' is not an alphabet letter"),
    (["contract", "{abab}", "--insert", "q"], "insert value 'q' is not an alphabet letter"),
    (["norm", "{abab}", "--max-length", "2"], "max_length below the input length"),
    (["contract", "{aa}", "--max-length", "0"], "max_length below the input length"),
    (["homotopic", "{aa}", "{aa}", "--max-length", "0"], "max_length below the input length"),
    (["classify", "nanowords4", "{aa}", "--max-length", "0"],
     "max_length below the input length"),
    # gamma separates ABAB from AABB, and the budget is still checked first
    (["homotopic", "{abab}", "{aabb}", "--max-length", "0"], "max_length below the input length"),
    (["homotopic", "{abab}", "{aabb}", "--max-states", "0"], "max_states must be positive"),
])
def test_cli_search_rejects_bad_inputs(tmp_path, capsys, argv, message):
    """Bad insert letters and budgets, an explicit 0 included, fail before the
    search, whether or not it would need insertions."""
    paths = {"aa": _write(tmp_path, "aa.rec", "alphabet: a b\nword: A A\nproj: A=a\n"),
             "abab": _write(tmp_path, "abab.rec", ABAB_ID),
             "aabb": _write(tmp_path, "aabb.rec", AABB_ID)}
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_cli_homotopic_non_homotopic(tmp_path, capsys):
    p1 = _write(tmp_path, "w1.rec", ABAB_ID)
    p2 = _write(tmp_path, "w2.rec", AABB_ID)
    assert main(["homotopic", p1, p2]) == 0
    assert "NON-HOMOTOPIC" in capsys.readouterr().out


def _forbid_fields_past_gamma(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a field past gamma was computed")
    for name in ("_mu_of", "self_link_function", "linking_pairing", "count_colorings",
                 "nabla", "lambda_invariant", "char_sequence"):
        monkeypatch.setattr(f"nanowords.fingerprint.{name}", unreachable)


def test_cli_homotopic_stops_at_the_first_separating_field(tmp_path, capsys, monkeypatch):
    _forbid_fields_past_gamma(monkeypatch)
    p1 = _write(tmp_path, "w1.rec", ABAB_ID)
    p2 = _write(tmp_path, "w2.rec", AABB_ID)
    assert main(["homotopic", p1, p2]) == 0
    assert capsys.readouterr().out == "NON-HOMOTOPIC (separated by gamma)\n"


def test_cli_homotopic_joined_by_the_short_search_computes_no_field_past_gamma(
        tmp_path, capsys, monkeypatch):
    _forbid_fields_past_gamma(monkeypatch)
    p1 = _write(tmp_path, "w1.rec", ABAB_ID)
    p2 = _write(tmp_path, "w2.rec", ABAB_M1)
    assert main(["homotopic", p1, p2]) == 0
    assert capsys.readouterr().out == "HOMOTOPIC\nM1+ @pos=3 insert=(b)\n"


@pytest.mark.parametrize("states", [300, SHORT_SEARCH_STATES, 3000, None])
def test_cli_homotopic_searches_again_only_past_the_short_budget(tmp_path, capsys, monkeypatch,
                                                                 states):
    """The Gauss word 1213 2434 and the empty word agree on every field and
    no search within 14 letters joins them: the full search runs after the
    short one only when --max-states exceeds the short budget."""
    budgets = []
    search = cli.search_homotopic

    def spy(w1, w2, data, max_length, max_states):
        budgets.append(max_states)
        return search(w1, w2, data, max_length, max_states)

    monkeypatch.setattr(cli, "search_homotopic", spy)
    g = _write(tmp_path, "g.rec", "alphabet: c\nword: 1 2 1 3 2 4 3 4\nproj: 1=c 2=c 3=c 4=c\n")
    e = _write(tmp_path, "e.rec", "alphabet: c\nword:\nproj:\n")
    argv = ["homotopic", g, e, "--max-length", "14"]
    full = 200000 if states is None else states
    assert main(argv + ([] if states is None else ["--max-states", str(states)])) == 2
    assert capsys.readouterr().out == "UNKNOWN (equal fingerprints, no certificate)\n"
    assert budgets == sorted({min(SHORT_SEARCH_STATES, full), full})


# {a,A,c}, {a,A,b,B}, {a,b}, a<->b and {c}
SWEEP_ALPHABETS = [ALPHABETS[3], ALPHABETS[2], ALPHABETS[0],
                   Alphabet(["a", "b"], {"a": "b", "b": "a"}), Alphabet(["c"])]


def _record_of(w) -> str:
    al = w.alphabet
    return (f"alphabet: {' '.join(al.letters)}\n"
            f"involution: {' '.join(f'{a}<->{al.tau(a)}' for a in al.letters)}\n"
            f"word: {' '.join(w.word)}\n"
            f"proj: {' '.join(f'{x}={w.proj[x]}' for x in w.letters)}\n")


def _perturbed(w, rng):
    """``w`` after one or two random moves within 4 letters."""
    data = HomotopyData(w.alphabet)
    for _ in range(rng.randint(1, 2)):
        options = enumerate_moves(w, data, insert_values=(rng.choice(w.alphabet.letters),),
                                  max_length=8, use_macros=True)
        if options:
            w = rng.choice(options)[1]
    return w


def test_cli_homotopic_equals_the_fingerprint_first_oracle(tmp_path, capsys, monkeypatch):
    """On 300 seeded pairs of 0-4 letters, perturbed and independent, at the
    default budget and at --max-states 300 (below the short search's), the
    exit code and the output, text and json-lines, equal those of the
    decision that compares every field before it searches."""
    rng = random.Random(37)
    decisions = (cli.cmd_homotopic, cmd_homotopic_fingerprint_first)
    verdicts = set()
    cases = itertools.product(range(15), SWEEP_ALPHABETS, (False, True),
                              ([], ["--max-states", "300"]))
    for _, al, independent, budget in cases:
        w1 = random_nanoword(al, rng.randint(0, 4), rng)
        w2 = random_nanoword(al, rng.randint(0, 4), rng) if independent else _perturbed(w1, rng)
        p1 = _write(tmp_path, "w1.rec", _record_of(w1))
        p2 = _write(tmp_path, "w2.rec", _record_of(w2))
        for fmt in ("text", "json-lines"):
            runs = []
            for decide in decisions:
                monkeypatch.setattr(cli, "cmd_homotopic", decide)
                code = main(["--format", fmt, "homotopic", p1, p2, *budget])
                runs.append((code, capsys.readouterr().out))
            assert runs[0] == runs[1], (fmt, budget, _record_of(w1), _record_of(w2))
        verdicts.add(json.loads(runs[0][1])["verdict"])
    assert verdicts == {"HOMOTOPIC", "NON-HOMOTOPIC", "UNKNOWN"}


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


def test_cli_verify_cert_rejects_a_target_over_another_alphabet(tmp_path, capsys):
    start = _write(tmp_path, "w.rec", ABAB_ID)
    target = _write(tmp_path, "t.rec", "alphabet: a b\ninvolution: a<->b\n"
                                       "word: A B A B\nproj: A=a B=b\n")
    cert = _write(tmp_path, "c.cert", "# no moves\n")
    assert main(["verify-cert", start, cert, "--target", target]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: nanoword over Alphabet(a b; a<->b; alpha0=a), homotopy data "
                            "over Alphabet(a b; a<->a b<->b; alpha0=a b)\n")


def test_cli_covering(tmp_path, capsys):
    path = _write(tmp_path, "w.rec", COVER)
    assert main(["covering", path, "--subgroup", "ab"]) == 0
    out = capsys.readouterr().out
    assert "covering: 1 2 3 1 3 2" in out


@pytest.mark.parametrize("subgroup, letter", [("zz", "'z'"), ("q^2", "'q'")])
def test_cli_covering_rejects_unknown_subgroup_letters(tmp_path, capsys, subgroup, letter):
    path = _write(tmp_path, "w.rec", COVER)
    assert main(["covering", path, "--subgroup", subgroup]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {letter} is not an alphabet letter\n"


def test_cli_colorings(tmp_path, capsys):
    path = _write(tmp_path, "w.rec", ABAB_ID)
    assert main(["colorings", path, "--beta", "a", "--tricolor"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3
    assert all(len(r.split()) == 3 for r in rows)


@pytest.mark.parametrize("argv, message", [
    (["colorings", "--p", "a=1"], "p undefined on 'b'"),
    (["colorings", "--pb", "a=1"], "p. undefined on 'b'"),
    (["colorings", "--p", "a=1,b=1,q=1"], "p given on 'q', not an alphabet letter"),
    (["colorings", "--p", "a=2,b=1"], "p(a) p(tau a) != 1 (mod 3)"),
    (["colorings", "--p", "a=1,b=1,c"], "unit value 'c' is not letter=integer"),
    (["colorings", "--pb", "a=1,b=x"], "unit value 'b=x' is not letter=integer"),
    (["colorings", "--p", "a=1,b=1,a=2"], "unit value given twice on 'a'"),
    (["colorings", "--pb", "a=1,a=1,b=1"], "unit value given twice on 'a'"),
    (["covering", "--subgroup", "a^"], "exponent of 'a^' is not an integer"),
    (["covering", "--subgroup", "b,a^x"], "exponent of 'a^x' is not an integer"),
])
def test_cli_colorings_rejects_bad_unit_values(tmp_path, capsys, argv, message):
    """Over a<->b, unit values must be integers given once on every letter
    and only on letters, and a subgroup's exponents integers; each gap is a
    typed error, never a traceback."""
    path = _write(tmp_path, "w.rec", "alphabet: a b\ninvolution: a<->b\n"
                                     "word: A B A B\nproj: A=a B=b\n")
    command, *options = argv
    assert main([command, path, *options]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_main_called_again_in_one_process(tmp_path, capsys, monkeypatch):
    """The parser is built once per process and keeps nothing between calls:
    an ``--beta`` given once is gone on the next call, and a command function
    patched after the first call is the one that runs."""
    path = _write(tmp_path, "w.rec", ABAB_FREE)
    build_parser.cache_clear()
    assert main(["invariants", path]) == 0
    fresh = capsys.readouterr().out
    assert main(["invariants", path, "--beta", "a,A"]) == 0
    assert capsys.readouterr().out != fresh
    assert main(["invariants", path]) == 0
    assert capsys.readouterr().out == fresh
    seen = []
    monkeypatch.setattr("nanowords.cli.cmd_homotopic", lambda args, out: seen.append(args) or 7)
    assert main(["homotopic", path, path]) == 7
    assert [(a.input1, a.input2) for a in seen] == [(path, path)]


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


def test_cli_classify_json_lines_rows_carry_their_detail(tmp_path, capsys):
    path = _write(tmp_path, "al.rec", ALPHA_ONLY)
    assert main(["--format", "json-lines", "classify", "nanowords4", path,
                 "--max-states", "1"]) == 2
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(label, status, detail) for label, status, _, detail in rows] == [
        ("('zero',)", "UNKNOWN", "search budget exhausted"),
        ("('abab', 'a', 'b')", "AGREES", ""), ("('abab', 'b', 'a')", "AGREES", "")]


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


def test_cli_reports_files_that_are_not_utf8(tmp_path, capsys):
    record = tmp_path / "bad.rec"
    record.write_bytes(b"\xff\xfe" + ABAB_ID.encode())
    cert = tmp_path / "bad.cert"
    cert.write_bytes(b"M1- @pos=1\n\xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_file(str(record))
    good = _write(tmp_path, "w.rec", AABB_ID)
    for argv in (["invariants", str(record)], ["verify-cert", good, str(cert)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err and "Traceback" not in err


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
