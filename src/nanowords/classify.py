"""Reproduction of the short-length homotopy classification tables.

Three families are enumerated and partitioned:

* nanowords4   -- the interlaced and non-interlaced length-4 patterns;
* nanowords6   -- the five irreducible length-6 patterns;
* words5       -- multiplicity-one-free words of length <= 5 in the alphabet.

For each family the predicted partition comes from the classification
theorems; the computed partition uses fingerprint buckets refined by
certificate search.  Budget exhaustion yields UNKNOWN cells, never a wrong
verdict, and any DISAGREES row is a defect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .fingerprint import compute_fingerprint
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
    unknown_pairs: list[tuple[str, str]] = field(default_factory=list)

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
    "xx": "zero",
    "xxx": "mono", "xxxx": "mono", "xxxxx": "mono",
    "xxyy": "zero", "xyyx": "zero",
    "xyxy": "abab",
    "xxxyy": "mono3", "xxyyx": "mono3", "xyyxx": "mono3", "yyxxx": "mono3",
    "xyxxy": "w1", "yxxyx": "w2", "xxyxy": "w3", "yxyxx": "w4",
    "yxxxy": "w5", "xyxyx": "w6",
}


def _predicted_word_label(s: tuple, al: Alphabet):
    tau = al.tau
    distinct = []
    for ch in s:
        if ch not in distinct:
            distinct.append(ch)
    if len(distinct) == 1:
        a = s[0]
        if len(s) == 2 or tau(a) == a:
            return ZERO
        return ("mono", a, len(s))
    l1, l2 = distinct
    for x, y in ((l1, l2), (l2, l1)):
        for shape, kind in _WORD_SHAPES.items():
            if len(shape) != len(s):
                continue
            if tuple(x if ch == "x" else y for ch in shape) != s:
                continue
            if kind == "zero":
                return ZERO
            if kind == "mono3":
                return ZERO if tau(x) == x else ("mono", x, 3)
            if kind == "abab":
                return ZERO if tau(x) == y else ("abab", x, y)
            if kind in ("w1", "w2"):
                return (kind, x, y)
            if kind in ("w3", "w4"):
                return ("w345", x, y) if x == tau(y) else (kind, x, y)
            if kind == "w5":
                if tau(x) == x:
                    return ZERO
                return ("w345", x, y) if x == tau(y) else (kind, x, y)
            if kind == "w6":
                return ZERO if tau(x) == y else (kind, x, y)
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


class _UnionFind:
    def __init__(self, names):
        self.parent = {n: n for n in names}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def classify(kind: str, alphabet: Alphabet, max_length: int | None = None,
             max_states: int = 100000) -> ClassificationResult:
    if kind not in FAMILIES:
        raise ValueError(f"unknown family {kind!r}; pick one of {sorted(FAMILIES)}")
    items = FAMILIES[kind](alphabet)
    data = HomotopyData(alphabet)

    fps = {it.name: compute_fingerprint(it.nanoword) for it in items}
    buckets: dict = {}
    for it in items:
        buckets.setdefault(fps[it.name].key(), []).append(it)

    uf = _UnionFind([it.name for it in items] + ["<empty>"])
    unknown_pairs: list[tuple[str, str]] = []

    for key, group in buckets.items():
        zeros = [it for it in group if it.predicted == ZERO]
        for it in zeros:
            cert = search_contractible(it.nanoword, data, max_length, max_states)
            if cert is not None:
                uf.union(it.name, "<empty>")
            else:
                unknown_pairs.append((it.name, "<empty>"))
        by_label: dict = {}
        for it in group:
            if it.predicted != ZERO:
                by_label.setdefault(it.predicted, []).append(it)
        for label, members in by_label.items():
            for one, two in zip(members, members[1:]):
                cert = search_homotopic(one.nanoword, two.nanoword, data,
                                        max_length, max_states)
                if cert is not None:
                    uf.union(one.name, two.name)
                else:
                    unknown_pairs.append((one.name, two.name))

    # assemble computed classes and compare against the prediction
    rows = []
    by_predicted: dict = {}
    for it in items:
        by_predicted.setdefault(it.predicted, []).append(it)
    for label, members in by_predicted.items():
        names = [it.name for it in members]
        keys = {fps[n].key() for n in names}
        status, detail = "AGREES", ""
        if len(keys) > 1:
            status, detail = "DISAGREES", "fingerprints split a predicted class"
        else:
            bucket = buckets[next(iter(keys))]
            root = uf.find("<empty>" if label == ZERO else names[0])
            linked = all(uf.find(n) == root for n in names)
            cross = [it for it in bucket if it.predicted != label]
            merged_foreign = [it.name for it in cross
                              if uf.find(it.name) == root]
            if merged_foreign:
                status, detail = "DISAGREES", \
                    f"certificate merges with {','.join(merged_foreign)}"
            elif not linked:
                status, detail = "UNKNOWN", "search budget exhausted"
            elif cross:
                # same fingerprint as another predicted class, not merged:
                # cannot certify separation
                shared = ",".join(sorted(it.name for it in cross))
                status, detail = "UNKNOWN", f"fingerprint shared with {shared}"
        rows.append(ClassRow(label, names, status, detail))
    return ClassificationResult(kind, rows, unknown_pairs)
