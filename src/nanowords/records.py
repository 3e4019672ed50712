"""Parsing of the text input format.

A record is a small block of ``key: value`` lines::

    alphabet: a b c
    involution: a<->b c<->c
    orientation: a c          # optional
    word: A B A B             # letters in an auxiliary set ...
    proj: A=a B=b             # ... with projections
    plainword: abab           # alternative to word/proj

``plainword`` tokens split on whitespace, or into single characters when the
value has no spaces.  Unknown keys and malformed lines raise ParseError with
the 1-based line number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidAlphabet, ParseError, UnknownSymbol
from .words import Alphabet, EtaleWord, Nanoword, desingularize, from_word


@dataclass
class Record:
    alphabet: Alphabet
    word: EtaleWord | None

    def require_word(self) -> EtaleWord:
        if self.word is None:
            raise ParseError("record carries no word")
        return self.word

    def nanoword(self) -> Nanoword:
        """The word desingularized; on a Gauss word that gives an isomorphic
        nanoword, and every output reads a canonical form."""
        return desingularize(self.require_word())


def parse_record(text: str) -> Record:
    fields: dict[str, tuple[str, int]] = {}
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {raw!r}", line=num)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key in fields:
            raise ParseError(f"duplicate field {key!r}", line=num)
        fields[key] = (value.strip(), num)

    def take(key):
        return fields.pop(key, (None, None))

    alpha_val, alpha_line = take("alphabet")
    if alpha_val is None:
        raise ParseError("missing 'alphabet:' line")
    letters = alpha_val.split()
    if not letters:
        raise ParseError("empty alphabet", line=alpha_line)

    inv_val, inv_line = take("involution")
    tau: dict[str, str] = {}
    if inv_val is not None:
        for pair in inv_val.split():
            if "<->" not in pair:
                raise ParseError(f"expected 'x<->y', got {pair!r}", line=inv_line)
            x, _, y = pair.partition("<->")
            for s in (x, y):
                if s not in letters:
                    raise ParseError(f"{s!r} is not an alphabet letter", line=inv_line)
            if x in tau and tau[x] != y or y in tau and tau[y] != x:
                raise ParseError(f"conflicting involution at {pair!r}", line=inv_line)
            tau[x] = y
            tau[y] = x
        missing = [a for a in letters if a not in tau]
        if missing:
            raise ParseError(f"involution undefined on {' '.join(missing)}", line=inv_line)
    else:
        tau = {a: a for a in letters}

    orient_val, orient_line = take("orientation")
    orientation = orient_val.split() if orient_val is not None else None
    try:
        alphabet = Alphabet(letters, tau, orientation)
    except (InvalidAlphabet, UnknownSymbol) as exc:
        raise ParseError(str(exc), line=orient_line or alpha_line) from exc

    word_val, word_line = take("word")
    plain_val, plain_line = take("plainword")
    proj_val, proj_line = take("proj")
    if fields:
        key, (_, num) = next(iter(fields.items()))
        raise ParseError(f"unknown field {key!r}", line=num)
    if word_val is not None and plain_val is not None:
        raise ParseError("give either 'word:' or 'plainword:', not both", line=plain_line)
    if plain_val is not None and proj_val is not None:
        raise ParseError("'plainword:' takes no 'proj:' line", line=proj_line)

    word: EtaleWord | None = None
    if plain_val is not None:
        tokens = plain_val.split() if " " in plain_val else list(plain_val)
        try:
            word = from_word(tokens, alphabet)
        except UnknownSymbol as exc:
            raise ParseError(str(exc), line=plain_line) from exc
    elif word_val is not None:
        if proj_val is None:
            raise ParseError("'word:' requires a 'proj:' line", line=word_line)
        proj = {}
        for item in proj_val.split():
            if "=" not in item:
                raise ParseError(f"expected 'X=a', got {item!r}", line=proj_line)
            x, _, a = item.partition("=")
            if x in proj:
                raise ParseError(f"letter {x!r} projected twice", line=proj_line)
            proj[x] = a
        tokens = word_val.split()
        for t in tokens:
            if t not in proj:
                raise ParseError(f"no projection for letter {t!r}", line=proj_line)
        try:
            word = EtaleWord(alphabet, tokens, proj)
        except UnknownSymbol as exc:
            raise ParseError(str(exc), line=proj_line) from exc
    elif proj_val is not None:
        raise ParseError("'proj:' without 'word:'", line=proj_line)

    return Record(alphabet=alphabet, word=word)


def read_text(path: str) -> str:
    """The text of the file at ``path``; ParseError when it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None


def parse_file(path: str) -> Record:
    return parse_record(read_text(path))
