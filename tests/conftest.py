import itertools
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from nanowords import Alphabet, Nanoword

GOLDENS = Path(__file__).parent / "goldens"


def golden_sections(name: str) -> dict[str, str]:
    """The sections of a golden file, keyed by their ``== title`` lines."""
    sections: dict[str, str] = {}
    title = None
    for line in (GOLDENS / name).read_text().splitlines(keepends=True):
        if line.startswith("== "):
            title = line[3:].rstrip("\n")
            sections[title] = ""
        else:
            sections[title] += line
    return sections


@pytest.fixture
def al_id2():
    """Two fixed points."""
    return Alphabet(["a", "b"])


@pytest.fixture
def al_free1():
    """One free orbit."""
    return Alphabet(["a", "A"], {"a": "A", "A": "a"})


@pytest.fixture
def al_free2():
    """Two free orbits."""
    return Alphabet(["a", "A", "b", "B"], {"a": "A", "A": "a", "b": "B", "B": "b"})


@pytest.fixture
def al_mixed():
    """One free orbit plus a fixed point."""
    return Alphabet(["a", "A", "c"], {"a": "A", "A": "a", "c": "c"})


ALPHABETS = [
    Alphabet(["a", "b"]),
    Alphabet(["a", "A"], {"a": "A", "A": "a"}),
    Alphabet(["a", "A", "b", "B"], {"a": "A", "A": "a", "b": "B", "B": "b"}),
    Alphabet(["a", "A", "c"], {"a": "A", "A": "a", "c": "c"}),
]


def random_nanoword(alphabet: Alphabet, n_letters: int, rng: random.Random) -> Nanoword:
    """Uniform random pairing of 2n positions with random projections."""
    positions = list(range(2 * n_letters))
    rng.shuffle(positions)
    word = [None] * (2 * n_letters)
    proj = {}
    for k in range(n_letters):
        name = str(k + 1)
        word[positions[2 * k]] = name
        word[positions[2 * k + 1]] = name
        proj[name] = rng.choice(alphabet.letters)
    return Nanoword(alphabet, word, proj).canonical()


def gauss_patterns(n_letters: int):
    """Every Gauss word of ``n_letters`` letters in canonical form: letters
    1, 2, ... by first occurrence, as the first half of ``Nanoword.key()``."""
    word = [0] * (2 * n_letters)

    def fill(letter):
        if letter > n_letters:
            yield tuple(word)
            return
        i = word.index(0)  # the next letter's first occurrence
        for j in range(i + 1, len(word)):
            if not word[j]:
                word[i] = word[j] = letter
                yield from fill(letter + 1)
                word[i] = word[j] = 0

    return fill(1)


def short_nanowords(alphabet: Alphabet, max_letters: int):
    """Every nanoword of at most ``max_letters`` letters up to isomorphism,
    canonical, by letter count: Gauss patterns x projection rows."""
    for n in range(max_letters + 1):
        for pattern in gauss_patterns(n):
            for row in itertools.product(alphabet.letters, repeat=n):
                yield Nanoword.from_key(alphabet, (pattern, row))


def alphabets_strategy():
    return st.sampled_from(ALPHABETS)


@st.composite
def nanowords_strategy(draw, alphabet=None, max_letters=5):
    al = alphabet or draw(alphabets_strategy())
    n = draw(st.integers(min_value=0, max_value=max_letters))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return random_nanoword(al, n, random.Random(seed))
