"""Byte-for-byte pins of the text reports.

Reports and classification tables must stay identical unless a change is
meant to alter them.  Together the ``invariants`` reports print values in
all five groups (pi, Pi, Pi', Pi~, Psi, Psi^ab) and their group rings.
"""

from pathlib import Path

import pytest

from nanowords.cli import main

GOLDENS = Path(__file__).parent / "goldens"

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


def test_classify_table_is_pinned(tmp_path, capsys):
    path = tmp_path / "al.rec"
    path.write_text(HEADERS["fixed2"])
    got = _run(capsys, ["classify", "nanowords4", str(path)])
    assert got == (GOLDENS / "classify_nanowords4.txt").read_text()
