"""Homotopy moves on nanowords and bounded certificate search.

Moves (with S a set of alphabet triples, by default the diagonal):

* M1   xAAy <-> xy
* M2   xAByBAz <-> xyz                when |B| = tau(|A|)
* M3   xAByACzBCt <-> xBAyCAzCBt      when (|A|,|B|,|C|) in S

Derived single-step macros (composites of the three moves, used to keep
search trees shallow; they can be switched off):

* L32  xAByABz <-> xyz                when |B| = tau(|A|), S meets alpha x b x b
* LI   xAByCAzBCt <-> xBAyACzCBt      when (|A|, tau|B|, |C|) in S
* LII  xAByCAzCBt <-> xBAyACzBCt      when (tau|A|, tau|B|, |C|) in S
* LIII xAByACzCBt <-> xBAyCAzBCt      when (|A|, tau|B|, tau|C|) in S

Search is deterministic: states are canonical keys (``Nanoword.key()``),
expanded in a fixed priority order, and budget exhaustion yields Unknown
(never a disproof).  Moves are applied to the key directly; a ``Nanoword`` is
built only for a certificate's end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate

from .errors import BudgetInvalid, ParseError, PreconditionViolated, UnknownSymbol
from .words import Alphabet, Nanoword

# ---------------------------------------------------------------------------
# Homotopy data and moves


@dataclass(frozen=True)
class HomotopyData:
    alphabet: Alphabet
    triples: frozenset | None = None  # None = diagonal of alpha^3

    def allows(self, a: str, b: str, c: str) -> bool:
        if self.triples is None:
            return a == b == c
        return (a, b, c) in self.triples

    def second_gate(self, b: str) -> bool:
        """S meets alpha x {b} x {b} (hypothesis of the interlaced-pair macro)."""
        if self.triples is None:
            return True
        return any(t[1] == b and t[2] == b for t in self.triples)


PAIR_KINDS = ("M1", "M2", "L32")
TRIPLE_KINDS = ("M3", "LI", "LII", "LIII")

# site letter patterns: for sites (x1,y1),(x2,y2),(x3,y3) each entry says
# which earlier slot each of x2,y2,x3,y3 must repeat (None = fresh letter).
_TRIPLE_SHAPES = {
    ("M3", "-"): ("x1", None, "y1", "y2"),
    ("M3", "+"): (None, "y1", "x2", "x1"),
    ("LI", "-"): (None, "x1", "y1", "x2"),
    ("LI", "+"): ("y1", None, "y2", "x1"),
    ("LII", "-"): (None, "x1", "x2", "y1"),
    ("LII", "+"): ("y1", None, "x1", "y2"),
    ("LIII", "-"): ("x1", None, "y2", "y1"),
    ("LIII", "+"): (None, "y1", "x1", "x2"),
}


def _anchors(shape):
    """Where a shape's second and third sites start, as (slot, offset) pairs.

    Each of the two sites repeats x1 (slot 0) or y1 (slot 1) of the first
    site, so it starts at the other occurrence of that letter, minus one when
    the letter is the site's second entry.
    """
    out = [None, None]
    for i, rule in enumerate(shape):
        if rule in ("x1", "y1"):
            out[i // 2] = (("x1", "y1").index(rule), i % 2)
    return out[0] + out[1]


_TRIPLE_ANCHORS = {ks: _anchors(shape) for ks, shape in _TRIPLE_SHAPES.items()}


@dataclass(frozen=True)
class Move:
    """One applicable move; positions are 0-based into the current word."""

    kind: str
    sign: str  # "-" deletes / left-to-right swap, "+" inserts / right-to-left
    positions: tuple[int, ...]
    values: tuple[str, ...] = ()  # alphabet value(s): deleted or inserted letter

    def format(self) -> str:
        pos = ",".join(str(p + 1) for p in self.positions)
        pos = f"({pos})" if len(self.positions) > 1 else pos
        out = f"{self.kind}{self.sign} @pos={pos}"
        if self.sign == "+" and self.kind in PAIR_KINDS:
            out += f" insert=({','.join(self.values)})"
        return out


def parse_move(text: str, line: int | None = None) -> Move:
    """Parse one certificate line, e.g. ``M2+ @pos=(3,7) insert=(a)``.

    Raises ParseError, carrying ``line`` when given, on any malformed text.
    """
    parts = text.split()
    if not parts:
        raise ParseError("empty move", line)
    kind, sign = parts[0][:-1], parts[0][-1]
    if kind not in PAIR_KINDS + TRIPLE_KINDS or sign not in ("+", "-"):
        raise ParseError(f"bad move {text!r}", line)
    fields = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ParseError(f"expected 'key=value', got {part!r}", line)
        key, _, value = part.partition("=")
        if key not in ("@pos", "insert"):
            raise ParseError(f"unknown field {key!r} in {text!r}", line)
        if key in fields:
            raise ParseError(f"repeated field {key!r} in {text!r}", line)
        fields[key] = value
    if "@pos" not in fields:
        raise ParseError(f"missing @pos in {text!r}", line)
    not_positive = ParseError(f"positions must be positive integers in {text!r}", line)
    try:
        positions = tuple(int(p) - 1 for p in fields["@pos"].strip("()").split(","))
    except ValueError:
        raise not_positive from None
    if min(positions) < 0:
        raise not_positive
    arity = 1 if kind == "M1" else 2 if kind in PAIR_KINDS else 3
    if len(positions) != arity:
        raise ParseError(f"{kind} takes {arity} position(s), got {len(positions)}", line)
    inserts = sign == "+" and kind in PAIR_KINDS
    if "insert" in fields and not inserts:
        raise ParseError(f"{parts[0]} takes no insert value", line)
    values = tuple(v for v in fields.get("insert", "").strip("()").split(",") if v)
    if inserts and len(values) != 1:
        raise ParseError(f"{parts[0]} needs exactly one insert value", line)
    return Move(kind, sign, positions, values)


def _swap_sites(word, sites):
    out = list(word)
    for p in sites:
        out[p], out[p + 1] = out[p + 1], out[p]
    return out


def _fresh(word_letters, n):
    taken = set(word_letters)
    names = []
    k = 0
    while len(names) < n:
        name = ("+", k)
        if name not in taken:
            names.append(name)
        k += 1
    return names


def _triple_condition(data: HomotopyData, kind: str, pa: str, pb: str, pc: str) -> bool:
    tau = data.alphabet.tau
    if kind == "M3":
        return data.allows(pa, pb, pc)
    if kind == "LI":
        return data.allows(pa, tau(pb), pc)
    if kind == "LII":
        return data.allows(tau(pa), tau(pb), pc)
    if kind == "LIII":
        return data.allows(pa, tau(pb), tau(pc))
    raise ValueError(kind)


def _match_triple(word, proj, data: HomotopyData, kind: str, sign: str, p, q, r):
    """Return (A, B, C) if the shape and the S-condition match, else None.

    ``proj[x]`` is the projection of letter ``x`` of ``word``.
    """
    x1, y1, x2, y2 = word[p], word[p + 1], word[q], word[q + 1]
    x3, y3 = word[r], word[r + 1]
    slots = {"x1": x1, "y1": y1}
    expect = _TRIPLE_SHAPES[(kind, sign)]
    actual = (x2, y2, x3, y3)
    fresh = None
    for val, rule in zip(actual, expect):
        if rule is None:
            if val in (x1, y1) or val == fresh:
                return None
            fresh = val
        else:
            slots.setdefault("x2", x2)
            slots.setdefault("y2", y2)
            if val != slots[rule]:
                return None
    # name the roles A, B, C
    if sign == "-":
        if kind in ("M3", "LIII"):
            a, b, c = x1, y1, y2
        else:  # LI, LII
            a, b, c = x1, y1, x2
    else:
        if kind in ("M3", "LIII"):
            b, a, c = x1, y1, x2
        else:  # LI, LII
            b, a, c = x1, y1, y2
    if len({a, b, c}) != 3:
        return None
    if not _triple_condition(data, kind, proj[a], proj[b], proj[c]):
        return None
    return a, b, c


def apply_move(w: Nanoword, move: Move, data: HomotopyData) -> Nanoword:
    """Apply ``move`` to ``w`` (not canonicalized); raises if it does not fit."""
    word, proj = w.word, w.proj
    n = len(word)
    k, sign, pos = move.kind, move.sign, move.positions
    tau = data.alphabet.tau

    if k in TRIPLE_KINDS:
        p, q, r = pos
        if not (0 <= p and p + 1 < q and q + 1 < r and r + 1 < n):
            raise PreconditionViolated(f"{move.format()}: sites overlap or overflow")
        if _match_triple(word, proj, data, k, sign, p, q, r) is None:
            raise PreconditionViolated(f"{move.format()}: pattern or S-condition fails")
        return Nanoword(w.alphabet, _swap_sites(word, pos), proj)

    if sign == "-":
        if k == "M1":
            (i,) = pos
            if not (0 <= i and i + 1 < n and word[i] == word[i + 1]):
                raise PreconditionViolated(f"{move.format()}: no doubled letter here")
            keep = word[:i] + word[i + 2:]
            return Nanoword(w.alphabet, keep, {x: proj[x] for x in keep})
        i, j = pos
        if not (0 <= i and i + 1 < j and j + 1 < n):
            raise PreconditionViolated(f"{move.format()}: sites overlap or overflow")
        a, b = word[i], word[i + 1]
        second = (b, a) if k == "M2" else (a, b)
        if (word[j], word[j + 1]) != second or a == b:
            raise PreconditionViolated(f"{move.format()}: pattern fails")
        if proj[b] != tau(proj[a]):
            raise PreconditionViolated(f"{move.format()}: |B| = tau(|A|) fails")
        if k == "L32" and not data.second_gate(proj[b]):
            raise PreconditionViolated(f"{move.format()}: S misses alpha x b x b")
        keep = word[:i] + word[i + 2:j] + word[j + 2:]
        return Nanoword(w.alphabet, keep, {x: proj[x] for x in keep})

    # insertions
    (val,) = move.values
    if val not in w.alphabet:
        raise UnknownSymbol(f"{move.format()}: insert value {val!r} is not an alphabet letter")
    if k == "M1":
        (i,) = pos
        if not 0 <= i <= n:
            raise PreconditionViolated(f"{move.format()}: position out of range")
        (new,) = _fresh(w.letters, 1)
        out = word[:i] + (new, new) + word[i:]
        return Nanoword(w.alphabet, out, {**proj, new: val})
    i, j = pos
    if not 0 <= i <= j <= n:
        raise PreconditionViolated(f"{move.format()}: positions out of range")
    if k == "L32" and not data.second_gate(tau(val)):
        raise PreconditionViolated(f"{move.format()}: S misses alpha x b x b")
    na, nb = _fresh(w.letters, 2)
    second = (nb, na) if k == "M2" else (na, nb)
    out = word[:i] + (na, nb) + word[i:j] + second + word[j:]
    return Nanoword(w.alphabet, out, {**proj, na: val, nb: tau(val)})


def invert_move(move: Move) -> Move:
    """The move that undoes ``move`` on its result (positions already shifted)."""
    k, sign, pos, vals = move.kind, move.sign, move.positions, move.values
    if k in TRIPLE_KINDS:
        return Move(k, "+" if sign == "-" else "-", pos)
    if k == "M1":
        return Move(k, "+" if sign == "-" else "-", pos, vals)
    if sign == "-":
        i, j = pos
        return Move(k, "+", (i, j - 2), vals)
    i, j = pos
    return Move(k, "-", (i, j + 2), vals)


def _key_of(seq, proj):
    """Canonical key of ``seq``: rename its letters 1, 2, ... by first occurrence."""
    order = dict.fromkeys(seq)
    names = dict(zip(order, range(1, len(order) + 1)))
    return tuple(map(names.__getitem__, seq)), tuple(map(proj.__getitem__, order))


def successor_keys(key, data: HomotopyData,
                   insert_values: tuple[str, ...] | None = None,
                   max_length: int | None = None,
                   use_macros: bool = False,
                   forward_only: bool = False):
    """All single-move successors of ``key`` as (move, key); ``key`` must be
    canonical, as ``Nanoword.key()`` returns it.

    Forward moves are exhaustive; insertions run over positions x
    ``insert_values`` and are gated by ``max_length``.  The order is fixed:
    deletions, then triple moves by sites, kind and sign, then insertions.
    """
    word, row = key
    proj = (None,) + row            # proj[x] for the letters 1..m of ``word``
    n = len(word)
    tau = data.alphabet.tau
    out = []

    def emit(move, seq):
        out.append((move, _key_of(seq, proj)))

    for i in range(n - 1):
        if word[i] == word[i + 1]:
            emit(Move("M1", "-", (i,), (proj[word[i]],)), word[:i] + word[i + 2:])
    for i in range(n - 1):
        a, b = word[i], word[i + 1]
        if a == b or proj[b] != tau(proj[a]):
            continue
        for j in range(i + 2, n - 1):
            pair = (word[j], word[j + 1])
            if pair == (b, a):
                emit(Move("M2", "-", (i, j), (proj[a],)),
                     word[:i] + word[i + 2:j] + word[j + 2:])
            if use_macros and pair == (a, b) and data.second_gate(proj[b]):
                emit(Move("L32", "-", (i, j), (proj[a],)),
                     word[:i] + word[i + 2:j] + word[j + 2:])

    # a triple move's first site fixes the other two through the second
    # occurrences of its letters: one candidate per first site and shape
    other = [0] * n
    first: dict = {}
    for i, x in enumerate(word):
        j = first.setdefault(x, i)
        other[i], other[j] = j, i
    shapes = [(kind, sign, _TRIPLE_ANCHORS[kind, sign])
              for kind in (TRIPLE_KINDS if use_macros else ("M3",)) for sign in "-+"]
    hits = []
    for p in range(n - 5):
        anchor = (other[p], other[p + 1])
        for order, (kind, sign, (s1, o1, s2, o2)) in enumerate(shapes):
            q, r = anchor[s1] - o1, anchor[s2] - o2
            if (p + 1 < q and q + 1 < r and r + 1 < n
                    and _match_triple(word, proj, data, kind, sign, p, q, r) is not None):
                hits.append((p, q, r, order, kind, sign))
    for p, q, r, _, kind, sign in sorted(hits):
        emit(Move(kind, sign, (p, q, r)), _swap_sites(word, (p, q, r)))

    if not forward_only:
        values = insert_values if insert_values is not None else data.alphabet.letters
        pairs = [(v, tau(v), use_macros and data.second_gate(tau(v))) for v in values]
        # ``word`` is canonical, so the letters before position i are 1..top[i];
        # letters inserted at i take the next names and later letters shift up
        top = list(accumulate(word, max, initial=0))
        if max_length is None or n + 2 <= max_length:
            for i in range(n + 1):
                t = top[i]
                pattern = word[:i] + (t + 1, t + 1) + tuple(x + 1 if x > t else x
                                                             for x in word[i:])
                for v in values:
                    out.append((Move("M1", "+", (i,), (v,)),
                                (pattern, row[:t] + (v,) + row[t:])))
        if max_length is None or n + 4 <= max_length:
            for i in range(n + 1):
                t = top[i]
                lifted = tuple(x + 2 if x > t else x for x in word)
                head = word[:i] + (t + 1, t + 2)
                rows = [(v, row[:t] + (v, tv) + row[t:], l32) for v, tv, l32 in pairs]
                for j in range(i, n + 1):
                    middle, tail = head + lifted[i:j], lifted[j:]
                    m2 = middle + (t + 2, t + 1) + tail
                    for v, vrow, l32 in rows:
                        out.append((Move("M2", "+", (i, j), (v,)), (m2, vrow)))
                        if l32:
                            out.append((Move("L32", "+", (i, j), (v,)),
                                        (middle + (t + 1, t + 2) + tail, vrow)))
    return out


def enumerate_moves(w: Nanoword, data: HomotopyData,
                    insert_values: tuple[str, ...] | None = None,
                    max_length: int | None = None,
                    use_macros: bool = False,
                    forward_only: bool = False):
    """All single-move successors of ``w`` as (move, canonical nanoword)."""
    return [(move, Nanoword.from_key(w.alphabet, k))
            for move, k in successor_keys(w.key(), data, insert_values, max_length,
                                          use_macros, forward_only)]


# ---------------------------------------------------------------------------
# Certificates


@dataclass
class Certificate:
    """A replayable move chain between two canonical nanowords."""

    start: Nanoword
    end: Nanoword
    moves: tuple[Move, ...]

    def format(self) -> str:
        lines = [m.format() for m in self.moves]
        return "\n".join(lines) + ("\n" if lines else "")


def verify_certificate(cert: Certificate, data: HomotopyData) -> bool:
    cur = cert.start.canonical()
    for move in cert.moves:
        cur = apply_move(cur, move, data).canonical()
    return cur.isomorphic(cert.end.canonical())


def certificate_from_states(states, data: HomotopyData,
                            insert_values=None, use_macros=True) -> Certificate:
    """Build a certificate from a chain of states one move apart.

    Used to replay worked contraction sequences given as word lists.
    """
    moves = []
    start = states[0].canonical()
    cur = start.key()
    for target in states[1:]:
        tkey = target.key()
        found = next((move for move, nxt in successor_keys(cur, data, insert_values,
                                                           use_macros=use_macros)
                      if nxt == tkey), None)
        if found is None:
            raise PreconditionViolated("consecutive states are not one move apart")
        moves.append(found)
        cur = tkey
    return Certificate(start, Nanoword.from_key(start.alphabet, cur), tuple(moves))


# ---------------------------------------------------------------------------
# Search


class _Frontier:
    """Visited set + heap of canonical keys; priority maps (key, depth) to a
    sortable key."""

    def __init__(self, start, priority):
        self.priority = priority
        self.parents: dict = {start: (None, None, 0)}  # key -> (parent, move, depth)
        self.heap = [(priority(start, 0), start)]

    def push(self, key, parent, move):
        if key in self.parents:
            return
        depth = self.parents[parent][2] + 1
        self.parents[key] = (parent, move, depth)
        heapq.heappush(self.heap, (self.priority(key, depth), key))

    def pop(self):
        return heapq.heappop(self.heap)[1] if self.heap else None

    def trace(self, key) -> list[Move]:
        moves = []
        while True:
            parent, move, _ = self.parents[key]
            if parent is None:
                return list(reversed(moves))
            moves.append(move)
            key = parent


def _greedy(key, depth):
    return (len(key[0]), depth, key)


def _breadth(key, depth):
    return (depth, len(key[0]), key)


def _contract_pass(start, data, max_length, max_states, insert_values, use_macros):
    front = _Frontier(start.key(), _greedy)
    while len(front.parents) < max_states:
        key = front.pop()
        if key is None:
            return None
        for move, nxt in successor_keys(key, data, insert_values, max_length, use_macros):
            if not nxt[0]:
                return Certificate(start, Nanoword.from_key(start.alphabet, nxt),
                                   tuple(front.trace(key) + [move]))
            front.push(nxt, key, move)
    return None


def search_contractible(w: Nanoword, data: HomotopyData, max_length: int,
                        max_states: int, insert_values=None,
                        use_macros: bool = True) -> Certificate | None:
    """Certificate that w is homotopic to the empty nanoword, or None (Unknown).

    None never means non-contractible; it means the budget ran out.
    ``max_states`` caps the visited set (canonical forms seen), which keeps
    run time proportional to the budget.  A first pass uses only non-growing
    moves (worked contractions rarely need insertions once the derived
    macros are available); insertions join in a second pass.
    """
    if max_states <= 0:
        raise BudgetInvalid("max_states must be positive")
    if max_length < len(w):
        raise BudgetInvalid("max_length below the input length")
    start = w.canonical()
    if not start.word:
        return Certificate(start, start, ())
    cert = _contract_pass(start, data, max_length, min(max_states, 50000),
                          (), use_macros)
    if cert is not None:
        return cert
    if insert_values == ():
        return None
    return _contract_pass(start, data, max_length, max_states,
                          insert_values, use_macros)


def search_homotopic(w1: Nanoword, w2: Nanoword, data: HomotopyData,
                     max_length: int, max_states: int, insert_values=None,
                     use_macros: bool = True) -> Certificate | None:
    """Bidirectional breadth-first meet-in-the-middle search for w1 ~ w2."""
    if max_states <= 0:
        raise BudgetInvalid("max_states must be positive")
    if max_length < max(len(w1), len(w2)):
        raise BudgetInvalid("max_length below an input length")
    s1, s2 = w1.canonical(), w2.canonical()
    if s1.key() == s2.key():
        return Certificate(s1, s2, ())

    f1 = _Frontier(s1.key(), _breadth)
    f2 = _Frontier(s2.key(), _breadth)

    def build(meet_key):
        fwd = f1.trace(meet_key)
        back = f2.trace(meet_key)
        return Certificate(s1, s2, tuple(fwd + [invert_move(m) for m in reversed(back)]))

    while len(f1.parents) + len(f2.parents) < max_states:
        side, other = (f1, f2) if len(f1.heap) <= len(f2.heap) else (f2, f1)
        if not side.heap:
            side, other = other, side
        key = side.pop()
        if key is None:
            return None
        for move, nxt in successor_keys(key, data, insert_values, max_length, use_macros):
            side.push(nxt, key, move)
            if nxt in other.parents:
                return build(nxt)
    return None


def norm_upper_bound(w: Nanoword, data: HomotopyData, max_states: int,
                     max_length: int | None = None, insert_values=None,
                     use_macros: bool = True) -> int:
    """min(length)/2 over every state reached in budget; at least the norm."""
    if max_states <= 0:
        raise BudgetInvalid("max_states must be positive")
    if max_length is None:
        max_length = len(w) + 4
    start = w.canonical().key()
    best = len(start[0])
    front = _Frontier(start, _greedy)
    while len(front.parents) < max_states and best > 0:
        key = front.pop()
        if key is None:
            break
        best = min(best, len(key[0]))
        for move, nxt in successor_keys(key, data, insert_values, max_length, use_macros):
            best = min(best, len(nxt[0]))
            front.push(nxt, key, move)
    return best // 2
