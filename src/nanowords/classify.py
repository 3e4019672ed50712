"""Reproduction of the short-length homotopy classification tables.

Three families are enumerated and partitioned:

* nanowords4   -- the interlaced and non-interlaced length-4 patterns;
* nanowords6   -- the five irreducible length-6 patterns;
* words5       -- multiplicity-one-free words of length <= 5 in the alphabet.

For each family the predicted partition comes from the classification
theorems.  ``classify`` first buckets the items with one partition
refinement (``fingerprint.partition``) labelled by predicted class: a bucket
is split field by field, weakest first, only while it holds two classes.
Then it checks each predicted class in item order, and the first check that
fails decides its row:

1. all members sit in one bucket, else DISAGREES;
2. certificates join the class: each member of the contractible class
   contracts, or each member of another class is homotopic to the next.
   The class stops searching at its first failed search, and the row is
   DISAGREES if the members' full keys differ, else UNKNOWN (search budget
   exhausted);
3. the class's bucket, a full-key bucket if it holds two classes, holds no
   item of another class, else UNKNOWN, since no computed invariant
   separates the two classes.

A class that passes all three AGREES.  Budget exhaustion yields UNKNOWN
cells, never a wrong verdict, and any DISAGREES row is a defect.  The
trade: members that certificates join are compared only on the fields their
bucket needed, so the rows equal the full-key rows while the invariants are
invariant, which the tests check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import UnknownFamily
from .fingerprint import Fingerprint, partition
from .moves import HomotopyData, search_contractible, search_homotopic
from .words import Alphabet, Nanoword, desingularize, from_word, nanoword_from_pattern

ZERO = ("zero",)


@dataclass
class Item:
    name: str
    nanoword: Nanoword
    predicted: tuple


@dataclass
class ClassRow:
    label: tuple
    members: list[str]
    status: str
    detail: str = ""


@dataclass
class ClassificationResult:
    kind: str
    rows: list[ClassRow]

    @property
    def agrees(self) -> bool:
        return all(r.status == "AGREES" for r in self.rows)

    def format(self) -> list[str]:
        lines = [f"classification {self.kind}: "
                 f"{'AGREES' if self.agrees else 'HAS FAILURES'} "
                 f"({len(self.rows)} classes)"]
        for r in sorted(self.rows, key=lambda r: str(r.label)):
            label = "contractible" if r.label == ZERO else str(r.label)
            detail = f"  [{r.detail}]" if r.detail else ""
            lines.append(f"  {r.status:9s} {label}: {len(r.members)} member(s): "
                         + ", ".join(sorted(r.members)) + detail)
        return lines


# ---------------------------------------------------------------------------
# Families


def family_nanowords4(al: Alphabet):
    items = []
    for a, b in itertools.product(al.letters, repeat=2):
        proj = {"A": a, "B": b}
        items.append(Item(f"AABB[{a},{b}]",
                          nanoword_from_pattern(al, "AABB", proj), ZERO))
        items.append(Item(f"ABBA[{a},{b}]",
                          nanoword_from_pattern(al, "ABBA", proj), ZERO))
        label = ZERO if b == al.tau(a) else ("abab", a, b)
        items.append(Item(f"ABAB[{a},{b}]",
                          nanoword_from_pattern(al, "ABAB", proj), label))
    return items


_PATTERNS6 = {
    "w1": "ABCABC",
    "w2": "ABCACB",
    "w3": "ABCBAC",
    "w4": "ABCBCA",
    "w5": "ABACBC",
}


def _label6(kind: str, al: Alphabet, a: str, b: str, c: str):
    tau = al.tau
    if kind == "w1" and (a == tau(b) or c == tau(b)):
        return ZERO
    if kind in ("w2", "w4") and c == tau(b):
        return ZERO
    if kind == "w3" and a == tau(b):
        return ZERO
    if kind == "w5" and a == b == c == tau(a):
        return ZERO
    if kind in ("w4", "w5") and a == b == c:
        return ("w45", a)
    return (kind, a, b, c)


def family_nanowords6(al: Alphabet):
    items = []
    for kind, pattern in _PATTERNS6.items():
        for a, b, c in itertools.product(al.letters, repeat=3):
            proj = {"A": a, "B": b, "C": c}
            items.append(Item(f"{pattern}[{a},{b},{c}]",
                              nanoword_from_pattern(al, pattern, proj),
                              _label6(kind, al, a, b, c)))
    return items


_WORD_SHAPES = {
    "xx": "zero", "xxyy": "zero", "xyyx": "zero",
    "xxx": "mono", "xxxx": "mono", "xxxxx": "mono",
    "xxxyy": "mono", "xxyyx": "mono", "xyyxx": "mono", "yyxxx": "mono",
    "xyxy": "abab",
    "xyxxy": "w1", "yxxyx": "w2", "xxyxy": "w3", "yxyxx": "w4",
    "yxxxy": "w5", "xyxyx": "w6",
}


def _predicted_word_label(s: tuple, al: Alphabet):
    tau = al.tau
    letters = list(dict.fromkeys(s))
    for x in letters:
        y = next((ch for ch in letters if ch != x), None)
        kind = _WORD_SHAPES.get("".join("x" if ch == x else "y" for ch in s))
        if kind is None:
            continue
        if kind == "zero" or (kind == "w5" and tau(x) == x):
            return ZERO
        if kind == "mono":
            return ZERO if tau(x) == x else ("mono", x, s.count(x))
        if kind in ("abab", "w6"):
            return ZERO if tau(x) == y else (kind, x, y)
        if kind in ("w3", "w4", "w5") and x == tau(y):
            return ("w345", x, y)
        return (kind, x, y)
    raise AssertionError(f"unclassified multiplicity-one-free word {s!r}")


def family_words5(al: Alphabet):
    items = []
    for length in range(2, 6):
        for s in itertools.product(al.letters, repeat=length):
            counts = {ch: s.count(ch) for ch in set(s)}
            if any(c < 2 for c in counts.values()):
                continue
            items.append(Item("".join(s), desingularize(from_word(s, al)),
                              _predicted_word_label(s, al)))
    return items


FAMILIES = {
    "nanowords4": family_nanowords4,
    "nanowords6": family_nanowords6,
    "words5": family_words5,
}


# ---------------------------------------------------------------------------
# Partition verification


def classify(kind: str, alphabet: Alphabet, max_length: int | None = None,
             max_states: int = 100000) -> ClassificationResult:
    if kind not in FAMILIES:
        raise UnknownFamily(f"unknown family {kind!r}; pick one of {sorted(FAMILIES)}")
    items = FAMILIES[kind](alphabet)
    data = HomotopyData(alphabet)
    fps = {it.name: Fingerprint(it.nanoword) for it in items}
    buckets = partition(fps, {it.name: it.predicted for it in items})
    bucket_of = {name: bucket for bucket in buckets for name in bucket}
    classes: dict = {}
    for it in items:
        classes.setdefault(it.predicted, []).append(it)

    def joined(label, members) -> bool:
        # all() stops at the first failed search
        if label == ZERO:
            return all(search_contractible(it.nanoword, data, max_length, max_states)
                       is not None for it in members)
        return all(search_homotopic(one.nanoword, two.nanoword, data, max_length,
                                    max_states) is not None
                   for one, two in zip(members, members[1:]))

    rows = []
    split = "DISAGREES", "fingerprints split a predicted class"
    for label, members in classes.items():
        names = [it.name for it in members]
        bucket = bucket_of[names[0]]
        status, detail = "AGREES", ""
        if any(bucket_of[n] is not bucket for n in names[1:]):
            status, detail = split
        elif not joined(label, members):
            # only the full keys tell a split class from an exhausted budget
            status, detail = (split if len(partition({n: fps[n] for n in names})) > 1
                              else ("UNKNOWN", "search budget exhausted"))
        else:
            # check 1 put every member in this bucket; the rest are other classes'
            shared = sorted(set(bucket) - set(names))
            if shared:
                status, detail = "UNKNOWN", f"fingerprint shared with {','.join(shared)}"
        rows.append(ClassRow(label, names, status, detail))
    return ClassificationResult(kind, rows)
