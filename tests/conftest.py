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


def alphabets_strategy():
    return st.sampled_from(ALPHABETS)


@st.composite
def nanowords_strategy(draw, alphabet=None, max_letters=5):
    al = alphabet or draw(alphabets_strategy())
    n = draw(st.integers(min_value=0, max_value=max_letters))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return random_nanoword(al, n, random.Random(seed))
