"""Seeded fuzz of the library: malformed but well-typed words, betas, coloring
specs, moves, certificates and budgets go to the public functions.  Bad input
must raise a ``NanowordError``; any other exception is an untyped escape."""

import random

from nanowords import (Certificate, CharSeq, ColoringSpec, HomotopyData, Move, PiElement,
                       PsiElement, SubgroupOfPi, apply_move, char_sequence, count_colorings,
                       covering, from_word, kei_act, kei_star, letter_class, mu, nabla,
                       nanoword_from_pattern, norm_upper_bound, product, search_contractible,
                       search_homotopic, self_link_class, self_link_function, verify_certificate)
from nanowords.errors import NanowordError
from nanowords.groups import parse_pi
from nanowords.moves import PAIR_KINDS, TRIPLE_KINDS, parse_move, successor_keys

from conftest import ALPHABETS, random_nanoword

SYMBOLS = ["a", "A", "b", "B", "c", "Z"]
KINDS = list(PAIR_KINDS + TRIPLE_KINDS) + ["M9", ""]


def _word(rng):
    """A nanoword of 0-4 letters, or a call that builds a malformed one."""
    al = rng.choice(ALPHABETS)
    if rng.random() < 0.8:
        return random_nanoword(al, rng.randrange(5), rng)
    pattern = [rng.choice("XYZ") for _ in range(rng.randrange(7))]
    return nanoword_from_pattern(al, pattern, {x: rng.choice(SYMBOLS) for x in "XY"})


def _symbols(rng, k=3):
    return rng.sample(SYMBOLS, rng.randrange(k + 1))


def _move(rng, w, data):
    """A move that applies to ``w`` a third of the time; else a hand-built one
    that has its kind's position count and one value most of the time."""
    if rng.random() < 0.3:
        records = [record for record, _ in successor_keys(w.key(), data, max_length=8)]
        if records:
            return Move(*rng.choice(records))
    n = len(w.word)
    kind = rng.choice(KINDS)
    arity = 1 if kind == "M1" else 2 if kind in PAIR_KINDS else 3
    if rng.random() < 0.3:
        arity = rng.randrange(5)
    positions = sorted(rng.randrange(-1, n + 2) for _ in range(arity))
    values = [rng.choice(SYMBOLS)] if rng.random() < 0.7 else _symbols(rng, 2)
    return Move(kind, rng.choice("+-"), tuple(positions), tuple(values))


def _spec(rng, w):
    al = rng.choice([w.alphabet, rng.choice(ALPHABETS)])
    units = {a: rng.randrange(-1, 6) for a in _symbols(rng, 4)} if rng.random() < 0.5 else None
    return ColoringSpec.make(al, _symbols(rng), rng.randrange(-1, 7), units, None)


def _budget(rng, w):
    return (rng.choice([None, -1, 0, len(w), len(w) + 2]), rng.choice([-1, 0, 1, 5, 20]),
            rng.choice([None, (), ("a",), ("Z",)]))


def _charseq(rng, w):
    x = CharSeq.generator(PsiElement.identity(w.alphabet))
    return kei_act(rng.choice(SYMBOLS), x) if rng.random() < 0.5 else x


CALLS = [
    lambda rng, w, data: letter_class(w, rng.choice([*w.letters, "Z", ("+", 0)])),
    lambda rng, w, data: self_link_class(w, rng.choice(SYMBOLS)),
    lambda rng, w, data: self_link_function(w).value(rng.choice(SYMBOLS)),
    lambda rng, w, data: mu(w).value(rng.choice(SYMBOLS), rng.choice(SYMBOLS)),
    lambda rng, w, data: covering(w, {a: SubgroupOfPi.whole(w.alphabet) for a in _symbols(rng)}),
    lambda rng, w, data: kei_star(_charseq(rng, w), rng.choice(SYMBOLS), _charseq(rng, w)),
    lambda rng, w, data: char_sequence(w),
    lambda rng, w, data: SubgroupOfPi(w.alphabet, [parse_pi(w.alphabet, " ".join(_symbols(rng)))]),
    lambda rng, w, data: PiElement.generator(w.alphabet, rng.choice(SYMBOLS)),
    lambda rng, w, data: product(w, _word(rng)),
    lambda rng, w, data: from_word("".join(_symbols(rng)), w.alphabet),
    lambda rng, w, data: nabla(w, _symbols(rng)),
    lambda rng, w, data: count_colorings(w, _spec(rng, w)),
    lambda rng, w, data: apply_move(w, _move(rng, w, data), data),
    lambda rng, w, data: verify_certificate(
        Certificate(w, _word(rng), tuple(_move(rng, w, data) for _ in range(rng.randrange(3)))),
        data),
    lambda rng, w, data: parse_move(" ".join(rng.sample(
        ["M1+", "M2-", "M9-", "@pos=1", "@pos=(1,3)", "@pos=0", "insert=(a)", "x"], 3))),
    lambda rng, w, data: search_contractible(w, data, *_budget(rng, w)),
    lambda rng, w, data: search_homotopic(w, _word(rng), data, *_budget(rng, w)),
    lambda rng, w, data: norm_upper_bound(w, data, *_budget(rng, w)[1::-1]),
]


def test_public_functions_raise_only_typed_errors():
    rng = random.Random(2005)
    escapes, typed = [], 0
    for case in range(3000):
        call = CALLS[case % len(CALLS)]
        try:
            w = _word(rng)
            # homotopy data over the word's alphabet, or over another one
            data = HomotopyData(rng.choice([w.alphabet, w.alphabet, rng.choice(ALPHABETS)]))
            call(rng, w, data)
        except NanowordError:
            typed += 1
        except Exception as exc:  # an untyped escape
            escapes.append((case, case % len(CALLS), f"{type(exc).__name__}: {exc}"))
    assert not escapes, escapes[:10]
    # most calls get through to the library, and a fair share is rejected
    assert 300 < typed < 2400, typed
