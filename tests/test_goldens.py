"""Byte-for-byte pins of the text reports and certificates.

Reports, classification tables and certificates must stay identical unless a
change is meant to alter them.  Together the ``invariants`` reports print
values in all five groups (pi, Pi, Pi', Pi~, Psi, Psi^ab) and their group
rings.  Certificates depend on the search's expansion order, so pinning them
pins that order.
"""

import hashlib
import re
import runpy
import sys
from pathlib import Path

import pytest

from nanowords.cli import main
from nanowords.fingerprint import Fingerprint, compute_fingerprint
from nanowords.records import parse_record

from conftest import ALPHABETS, GOLDENS, golden_sections, short_nanowords

SCRIPT = Path(__file__).parents[1] / "scripts" / "worked_contractions.py"

HEADERS = {
    "mixed": "alphabet: a A c\ninvolution: a<->A c<->c\n",
    "free2": "alphabet: a A b B\ninvolution: a<->A b<->B\n",
    "fixed2": "alphabet: a b\ninvolution: a<->a b<->b\n",
}

WORDS = [
    ("mixed", "word: X Y Z X Y Z\nproj: X=a Y=c Z=A\n"),
    ("mixed", "word: 1 2 3 1 4 2 3 4\nproj: 1=a 2=c 3=A 4=c\n"),
    ("mixed", "plainword: acAac\n"),
    ("free2", "word: X Y X Y\nproj: X=a Y=b\n"),
    ("free2", "word: 1 2 3 1 4 2 3 4\nproj: 1=a 2=B 3=A 4=b\n"),
    ("free2", "word: 1 2 3 4 5 1 2 3 4 5\nproj: 1=a 2=b 3=A 4=B 5=a\n"),
    ("fixed2", "word: A B A B\nproj: A=a B=b\n"),
    ("fixed2", "word: 1 2 3 1 4 2 3 4\nproj: 1=a 2=b 3=a 4=b\n"),
    ("fixed2", "plainword: aabab\n"),
]


def _run(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_invariants_reports_are_pinned(tmp_path, capsys):
    out = []
    for k, (alphabet, body) in enumerate(WORDS):
        path = tmp_path / f"w{k}.rec"
        path.write_text(HEADERS[alphabet] + body)
        out.append(_run(capsys, ["invariants", str(path)]))
    assert "".join(out) == (GOLDENS / "invariants.txt").read_text()


def test_invariants_stats_go_to_stderr(tmp_path, capsys):
    out = []
    for k, (alphabet, body) in enumerate(WORDS):
        path = tmp_path / f"w{k}.rec"
        path.write_text(HEADERS[alphabet] + body)
        assert main(["invariants", str(path), "--stats"]) == 0
        captured = capsys.readouterr()
        out.append(captured.out)
        names = Fingerprint(parse_record(path.read_text()).nanoword()).names
        lines = captured.err.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"time {name}" for name in names]
        assert all(float(line.split()[-2]) >= 0 and line.endswith(" s") for line in lines)
    assert "".join(out) == (GOLDENS / "invariants.txt").read_text()


def test_fingerprint_keys_are_pinned():
    # the fingerprint-sweep benchmark digest hashes these keys
    got = "".join(repr(compute_fingerprint(parse_record(HEADERS[alphabet] + body)
                                           .nanoword()).key()) + "\n"
                  for alphabet, body in WORDS)
    assert got == (GOLDENS / "fingerprint_keys.txt").read_text()


# the sha256 of the sorted lines "alphabet, word key, fingerprint key" over
# every nanoword of at most 3 letters over {a,b}, {a,A} and {a,A,c}
SHORT_WORD_KEYS_SHA256 = "1ae419c0b14ef750f874d1c06a3aa2188fbd5cece2d237ff37b8ca223cdc50d1"


def _short_word_keys() -> dict[str, str]:
    """``alphabet, word key`` -> fingerprint key, over the 706 short words."""
    return {f"{' '.join(al.letters)}, {w.key()!r}": repr(compute_fingerprint(w).key())
            for al in (ALPHABETS[0], ALPHABETS[1], ALPHABETS[3])
            for w in short_nanowords(al, 3)}


def test_short_word_keys_are_pinned():
    # short_word_keys.txt holds a 16-digit digest of each word's fingerprint
    # key, so that a failure names the first word whose key changed
    keys = _short_word_keys()
    lines = sorted(f"{word}, {key}" for word, key in keys.items())
    if hashlib.sha256("\n".join(lines).encode()).hexdigest() == SHORT_WORD_KEYS_SHA256:
        return
    pinned = dict(line.rsplit(", ", 1)
                  for line in (GOLDENS / "short_word_keys.txt").read_text().splitlines())
    for word in sorted(keys):
        if hashlib.sha256(keys[word].encode()).hexdigest()[:16] != pinned.get(word):
            pytest.fail(f"the fingerprint key of {word} changed: {keys[word]}")
    pytest.fail("the short-word keys changed")


# the four tables of scripts/classification_tables.py and the benchmark
CLASSIFY_TABLES = {
    ("nanowords4", "fixed2"): "classify_nanowords4.txt",
    ("nanowords4", "free2"): "classify_nanowords4_free2.txt",
    ("nanowords6", "free2"): "classify_nanowords6_free2.txt",
    ("words5", "fixed2"): "classify_words5_fixed2.txt",
}


@pytest.mark.parametrize("family, alphabet", CLASSIFY_TABLES,
                         ids=[" ".join(run) for run in CLASSIFY_TABLES])
def test_classify_table_is_pinned(tmp_path, capsys, family, alphabet):
    path = tmp_path / "al.rec"
    path.write_text(HEADERS[alphabet])
    got = _run(capsys, ["classify", family, str(path)])
    assert got == (GOLDENS / CLASSIFY_TABLES[family, alphabet]).read_text()


CERT_RECORDS = {
    "w16": "alphabet: e E x y\ninvolution: e<->E x<->x y<->y\n"
           "word: A B C D E F B G D H F A G C H E\n"
           "proj: A=e B=e F=e C=E D=E G=E E=x H=y\n",
    "ababa": "alphabet: a b\ninvolution: a<->b\nplainword: ababa\n",
    "w5": "alphabet: a A\ninvolution: a<->A\n"
          "word: A B A C B C\nproj: A=a B=a C=a\n",
    "w10": "alphabet: a A\ninvolution: a<->A\n"
           "word: 1 2 3 4 5 2 4 3 5 1\nproj: 1=a 2=a 3=A 4=a 5=a\n",
    "abcabc": "alphabet: e E\ninvolution: e<->E\n"
              "word: A B C A B C\nproj: A=e B=E C=e\n",
    "baaccb": "alphabet: e E\ninvolution: e<->E\n"
              "word: B A A C C B\nproj: A=e B=E C=e\n",
}

# w5 ~ w10 meets in the middle: its certificate ends with an inverted move
# from the backward search
CLI_RUNS = (("contract", "w16"), ("contract", "ababa"),
            ("homotopic", "w5", "w10"), ("homotopic", "abcabc", "baaccb"))


def test_worked_contraction_certificates_are_pinned(monkeypatch, capsys):
    script_main = runpy.run_path(str(SCRIPT))["main"]
    monkeypatch.setattr(sys, "argv", [SCRIPT.name])
    assert script_main() == 0
    out = re.sub(r" \(\d+\.\ds\)", "", capsys.readouterr().out)
    assert out == golden_sections("certificates.txt")["worked_contractions.py"]


@pytest.mark.parametrize("argv", CLI_RUNS, ids=" ".join)
def test_cli_certificates_are_pinned(tmp_path, capsys, argv):
    command, *names = argv
    paths = []
    for name in names:
        path = tmp_path / f"{name}.rec"
        path.write_text(CERT_RECORDS[name])
        paths.append(str(path))
    got = _run(capsys, [command, *paths])
    assert got == golden_sections("certificates.txt")[" ".join(argv)]
