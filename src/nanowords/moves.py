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
(never a disproof).  Moves are applied to the key directly, and successors are
made one at a time as plain (kind, sign, positions, values) records; a ``Move``
is built only for a certificate's path, and a ``Nanoword`` only for its end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate, count, islice

from .errors import (AlphabetMismatch, BudgetInvalid, NanowordError, ParseError,
                     PreconditionViolated, UnknownSymbol)
from .words import Alphabet, Nanoword, _key_of

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


def _check_alphabet(w: Nanoword, data: HomotopyData):
    if w.alphabet != data.alphabet:
        raise AlphabetMismatch(f"nanoword over {w.alphabet}, homotopy data over {data.alphabet}")


PAIR_KINDS = ("M1", "M2", "L32")

# each triple kind's "-" side over the sites (x1 y1)(x2 y2)(x3 y3), as the
# docstring writes it with empty spacers, and the roles among A, B, C whose
# projection its S-condition reads through tau
_TRIPLE_TABLE = (
    ("M3", "ABACBC", ""),
    ("LI", "ABCABC", "B"),
    ("LII", "ABCACB", "AB"),
    ("LIII", "ABACCB", "BC"),
)
TRIPLE_KINDS = tuple(kind for kind, _, _ in _TRIPLE_TABLE)


@dataclass(frozen=True)
class _Shape:
    """One side of a triple kind, derived from its row of ``_TRIPLE_TABLE``."""

    kind: str
    sign: str
    roles: tuple[int, ...]    # role (0 = A, 1 = B, 2 = C) of each site letter
    first: tuple[int, ...]    # the site letter that first plays A, B, C
    taus: tuple[bool, ...]    # whether the S-condition reads |A|, |B|, |C| through tau
    anchors: tuple[int, ...]  # (slot, offset) of the second site, then of the third


def _shape(kind: str, sign: str, pattern: str, taus: str) -> _Shape:
    if sign == "+":
        pattern = "".join(pattern[i ^ 1] for i in range(6))
    # the second and third sites each repeat x1 (slot 0) or y1 (slot 1), so
    # each starts at the other occurrence of that letter, minus one when the
    # letter is the site's second entry
    anchors = ()
    for site in (2, 4):
        offset = 0 if pattern[site] in pattern[:2] else 1
        anchors += (pattern.index(pattern[site + offset]), offset)
    return _Shape(kind, sign, tuple("ABC".index(x) for x in pattern),
                  tuple(map(pattern.index, "ABC")), tuple(x in taus for x in "ABC"), anchors)


_TRIPLE_SHAPES = {(kind, sign): _shape(kind, sign, pattern, taus)
                  for kind, pattern, taus in _TRIPLE_TABLE for sign in "-+"}


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


def _counts(kind: str, sign: str) -> tuple[int, int] | None:
    """The numbers of positions and of insert values that a move of ``kind``
    and ``sign`` takes, or None when the kind or the sign is unknown."""
    if kind not in PAIR_KINDS + TRIPLE_KINDS or sign not in ("+", "-"):
        return None
    inserts = sign == "+" and kind in PAIR_KINDS
    return (1 if kind == "M1" else 2 if kind in PAIR_KINDS else 3), int(inserts)


def parse_move(text: str, line: int | None = None) -> Move:
    """Parse one certificate line, e.g. ``M2+ @pos=(3,7) insert=(a)``.

    Raises ParseError, carrying ``line`` when given, on any malformed text.
    """
    parts = text.split()
    if not parts:
        raise ParseError("empty move", line)
    kind, sign = parts[0][:-1], parts[0][-1]
    counts = _counts(kind, sign)
    if counts is None:
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
    arity, inserts = counts
    if len(positions) != arity:
        raise ParseError(f"{kind} takes {arity} position(s), got {len(positions)}", line)
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
    """The first ``n`` letters ("+", k) that ``word_letters`` does not use."""
    taken = set(word_letters)
    return list(islice((x for x in (("+", k) for k in count()) if x not in taken), n))


def _match_triple(word, proj, data: HomotopyData, shape: _Shape, p, q, r) -> bool:
    """Whether the sites p, q, r show ``shape``'s letter pattern and its
    S-condition holds; ``proj[x]`` is the projection of letter ``x`` of ``word``.

    The sites are disjoint and every letter occurs twice, so letters that
    match the pattern's three pairs are three distinct letters.
    """
    seen = [word[p], word[p + 1], word[q], word[q + 1], word[r], word[r + 1]]
    abc = [seen[i] for i in shape.first]
    if [abc[k] for k in shape.roles] != seen:
        return False
    tau = data.alphabet.tau
    return data.allows(*[tau(proj[x]) if t else proj[x] for x, t in zip(abc, shape.taus)])


def apply_move(w: Nanoword, move: Move, data: HomotopyData) -> Nanoword:
    """Apply ``move`` to ``w`` (not canonicalized); raises if it does not fit."""
    _check_alphabet(w, data)
    word, proj = w.word, w.proj
    n = len(word)
    k, sign, pos = move.kind, move.sign, move.positions
    tau = data.alphabet.tau
    counts = _counts(k, sign)
    if counts is None:
        raise PreconditionViolated(f"{move.format()}: unknown kind or sign")
    if len(pos) != counts[0] or counts[1] and len(move.values) != 1:
        raise PreconditionViolated(f"{move.format()}: takes {counts[0]} position(s) "
                                   f"and {counts[1]} insert value(s)")

    if k in TRIPLE_KINDS:
        p, q, r = pos
        if not (0 <= p and p + 1 < q and q + 1 < r and r + 1 < n):
            raise PreconditionViolated(f"{move.format()}: sites overlap or overflow")
        if not _match_triple(word, proj, data, _TRIPLE_SHAPES[k, sign], p, q, r):
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
    sign = "+" if move.sign == "-" else "-"
    pos = move.positions
    if move.kind in ("M2", "L32"):
        pos = (pos[0], pos[1] + (2 if sign == "-" else -2))
    return Move(move.kind, sign, pos, move.values)


def successor_keys(key, data: HomotopyData,
                   insert_values: tuple[str, ...] | None = None,
                   max_length: int | None = None,
                   use_macros: bool = False):
    """Yield every single-move successor of ``key`` as (record, key); ``key``
    must be canonical, as ``Nanoword.key()`` returns it.

    A record is the tuple (kind, sign, positions, values) of ``Move``'s
    fields, so ``Move(*record)`` rebuilds the move.  Successors are made one
    at a time, so a caller that stops early skips the rest.  Forward moves
    are exhaustive; insertions run over positions x ``insert_values`` (every
    alphabet letter when None, none when empty) and are gated by
    ``max_length``.  The order is fixed: deletions, then triple moves by
    sites, kind and sign, then insertions.
    """
    word, row = key
    proj = (None,) + row            # proj[x] for the letters 1..m of ``word``
    n = len(word)
    tau = data.alphabet.tau

    for i in range(n - 1):
        if word[i] == word[i + 1]:
            yield ("M1", "-", (i,), (proj[word[i]],)), _key_of(word[:i] + word[i + 2:], proj)
    for i in range(n - 1):
        a, b = word[i], word[i + 1]
        if a == b or proj[b] != tau(proj[a]):
            continue
        for j in range(i + 2, n - 1):
            pair = (word[j], word[j + 1])
            if pair == (b, a):
                yield (("M2", "-", (i, j), (proj[a],)),
                       _key_of(word[:i] + word[i + 2:j] + word[j + 2:], proj))
            if use_macros and pair == (a, b) and data.second_gate(proj[b]):
                yield (("L32", "-", (i, j), (proj[a],)),
                       _key_of(word[:i] + word[i + 2:j] + word[j + 2:], proj))

    # a triple move's first site fixes the other two through the second
    # occurrences of its letters: one candidate per first site and shape
    other = [0] * n
    first: dict = {}
    for i, x in enumerate(word):
        j = first.setdefault(x, i)
        other[i], other[j] = j, i
    shapes = [(shape, *shape.anchors) for shape in _TRIPLE_SHAPES.values()
              if use_macros or shape.kind == "M3"]
    hits = []
    for p in range(n - 5):
        anchor = (other[p], other[p + 1])
        for order, (shape, s1, o1, s2, o2) in enumerate(shapes):
            q, r = anchor[s1] - o1, anchor[s2] - o2
            if (p + 1 < q and q + 1 < r and r + 1 < n
                    and _match_triple(word, proj, data, shape, p, q, r)):
                hits.append((p, q, r, order, shape))
    for p, q, r, _, shape in sorted(hits):
        yield ((shape.kind, shape.sign, (p, q, r), ()),
               _key_of(_swap_sites(word, (p, q, r)), proj))

    values = insert_values if insert_values is not None else data.alphabet.letters
    if not values:
        return
    # ``word`` is canonical, so the letters before position i are 1..top[i];
    # letters inserted at i take the next names and later letters shift up
    top = list(accumulate(word, max, initial=0))
    if max_length is None or n + 2 <= max_length:
        for i in range(n + 1):
            t = top[i]
            pattern = word[:i] + (t + 1, t + 1) + tuple(x + 1 if x > t else x
                                                         for x in word[i:])
            for v in values:
                yield ("M1", "+", (i,), (v,)), (pattern, row[:t] + (v,) + row[t:])
    if max_length is None or n + 4 <= max_length:
        pairs = [(v, tau(v), use_macros and data.second_gate(tau(v))) for v in values]
        for i in range(n + 1):
            t = top[i]
            lifted = tuple(x + 2 if x > t else x for x in word)
            head = word[:i] + (t + 1, t + 2)
            rows = [(v, row[:t] + (v, tv) + row[t:], l32) for v, tv, l32 in pairs]
            for j in range(i, n + 1):
                middle, tail = head + lifted[i:j], lifted[j:]
                m2 = middle + (t + 2, t + 1) + tail
                for v, vrow, l32 in rows:
                    yield ("M2", "+", (i, j), (v,)), (m2, vrow)
                    if l32:
                        yield ("L32", "+", (i, j), (v,)), (middle + (t + 1, t + 2) + tail, vrow)


def enumerate_moves(w: Nanoword, data: HomotopyData,
                    insert_values: tuple[str, ...] | None = None,
                    max_length: int | None = None,
                    use_macros: bool = False):
    """All single-move successors of ``w`` as (move, canonical nanoword)."""
    return [(Move(*record), Nanoword.from_key(w.alphabet, k))
            for record, k in successor_keys(w.key(), data, insert_values, max_length,
                                            use_macros)]


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
    """Whether the moves of ``cert``, replayed from its start, end at its end.

    A move that does not apply raises PreconditionViolated carrying the
    move's index in ``cert.moves``.
    """
    cur = cert.start.canonical()
    try:
        for index, move in enumerate(cert.moves):
            cur = apply_move(cur, move, data).canonical()
    except NanowordError as exc:
        raise PreconditionViolated(str(exc), index) from None
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
        found = next((record for record, nxt in successor_keys(cur, data, insert_values,
                                                               use_macros=use_macros)
                      if nxt == tkey), None)
        if found is None:
            raise PreconditionViolated("consecutive states are not one move apart")
        moves.append(Move(*found))
        cur = tkey
    return Certificate(start, Nanoword.from_key(start.alphabet, cur), tuple(moves))


# ---------------------------------------------------------------------------
# Search


class _Frontier:
    """Visited keys, each with its (parent, move record, depth), and a heap
    of keys to expand; ``priority`` maps (key, depth) to a sortable key.  The
    other arguments are those of ``successor_keys``."""

    def __init__(self, start, priority, data, insert_values, max_length, use_macros):
        self.priority = priority
        self.successor_args = (data, insert_values, max_length, use_macros)
        self.parents: dict = {start: (None, None, 0)}
        self.heap = [(priority(start, 0), start)]

    def expand(self):
        """Pop the best key; record and yield each successor not seen before."""
        key = heapq.heappop(self.heap)[1]
        depth = self.parents[key][2] + 1
        for record, nxt in successor_keys(key, *self.successor_args):
            if nxt not in self.parents:
                self.parents[nxt] = (key, record, depth)
                heapq.heappush(self.heap, (self.priority(nxt, depth), nxt))
                yield nxt

    def trace(self, key) -> list[Move]:
        """The moves from the start to ``key``."""
        moves = []
        parent, record, _ = self.parents[key]
        while parent is not None:
            moves.append(Move(*record))
            parent, record, _ = self.parents[parent]
        return moves[::-1]


def _greedy(key, depth):
    return (len(key[0]), depth, key)


def _breadth(key, depth):
    return (depth, len(key[0]), key)


_EMPTY = ((), ())  # the key of the empty nanoword


def _check_budget(data: HomotopyData, max_states, max_length, words, insert_values):
    """Reject a search's inputs before it expands anything."""
    for w in words:
        _check_alphabet(w, data)
    if max_states <= 0:
        raise BudgetInvalid("max_states must be positive")
    if max_length < max(map(len, words)):
        raise BudgetInvalid("max_length below the input length")
    for v in insert_values or ():
        if v not in data.alphabet:
            raise UnknownSymbol(f"insert value {v!r} is not an alphabet letter")


def _descend(start, data, max_length, max_states, insert_values, use_macros) -> _Frontier:
    """Shortest-first search from the key ``start`` until it reaches the empty
    word, visits ``max_states`` keys or runs out of frontier."""
    front = _Frontier(start, _greedy, data, insert_values, max_length, use_macros)
    while _EMPTY not in front.parents and front.heap and len(front.parents) < max_states:
        for nxt in front.expand():
            if not nxt[0]:
                break
    return front


def search_contractible(w: Nanoword, data: HomotopyData, max_length: int | None,
                        max_states: int, insert_values=None,
                        use_macros: bool = True) -> Certificate | None:
    """Certificate that w is homotopic to the empty nanoword, or None (Unknown).

    None never means non-contractible; it means the budget ran out.
    ``max_length`` None means len(w) + 8.  ``max_states`` caps the visited
    set (canonical forms seen), which keeps run time proportional to the
    budget.  A first pass uses only non-growing moves (worked contractions
    rarely need insertions once the derived macros are available);
    insertions join in a second pass.
    """
    if max_length is None:
        max_length = len(w) + 8
    _check_budget(data, max_states, max_length, (w,), insert_values)
    start = w.canonical()
    front = _descend(start.key(), data, max_length, min(max_states, 50000), (), use_macros)
    if _EMPTY not in front.parents and insert_values != ():
        front = _descend(start.key(), data, max_length, max_states, insert_values, use_macros)
    if _EMPTY not in front.parents:
        return None
    return Certificate(start, Nanoword.from_key(start.alphabet, _EMPTY),
                       tuple(front.trace(_EMPTY)))


def search_homotopic(w1: Nanoword, w2: Nanoword, data: HomotopyData,
                     max_length: int | None, max_states: int, insert_values=None,
                     use_macros: bool = True) -> Certificate | None:
    """Bidirectional breadth-first meet-in-the-middle search for w1 ~ w2.

    None never means non-homotopic.  It means the budget ran out or, when
    ``insert_values`` is None, that one side's component under ``max_length``
    was exhausted without a meet: every move's inverse is then a move within
    ``max_length``, so that component is closed and no path of moves within
    ``max_length`` joins the two words (a longer one still may).  With a
    restricted insert set the search goes on until both sides are exhausted.
    ``max_length`` None means max(len(w1), len(w2)) + 4.
    """
    if max_length is None:
        max_length = max(len(w1), len(w2)) + 4
    _check_budget(data, max_states, max_length, (w1, w2), insert_values)
    s1, s2 = w1.canonical(), w2.canonical()
    if s1.key() == s2.key():
        return Certificate(s1, s2, ())
    f1 = _Frontier(s1.key(), _breadth, data, insert_values, max_length, use_macros)
    f2 = _Frontier(s2.key(), _breadth, data, insert_values, max_length, use_macros)
    while len(f1.parents) + len(f2.parents) < max_states:
        # the side with the smaller live heap, the first side on a tie
        side, other = sorted((f1, f2), key=lambda f: (not f.heap, len(f.heap)))
        if not side.heap or (insert_values is None and not other.heap):
            return None
        for nxt in side.expand():
            if nxt in other.parents:
                back = [invert_move(m) for m in reversed(f2.trace(nxt))]
                return Certificate(s1, s2, tuple(f1.trace(nxt) + back))
    return None


def norm_upper_bound(w: Nanoword, data: HomotopyData, max_states: int,
                     max_length: int | None = None, insert_values=None,
                     use_macros: bool = True) -> int:
    """min(length)/2 over every state reached in budget; at least the norm."""
    if max_length is None:
        max_length = len(w) + 4
    _check_budget(data, max_states, max_length, (w,), insert_values)
    front = _descend(w.canonical().key(), data, max_length, max_states,
                     insert_values, use_macros)
    return min(len(key[0]) for key in front.parents) // 2
