"""Aggregate of every homotopy invariant the package computes.

Equal fingerprints are necessary for homotopy; any differing field is a
certificate of non-homotopy and the report names the weakest field that
separates, mirroring how the classification proofs assign one invariant to
each separated pair.

One table, ``_ROWS``, drives everything: each row computes, keys and reports
one field, and fingerprints compare by the keys alone.  A ``Fingerprint``
computes a field the first time it is used, so a comparison stops at the
first field that separates.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, NamedTuple

from .groups import PiTildeElement
from .interlacement import _mu_of, gamma
from .keis import char_sequence, format_charseq
from .lambdainv import lambda_invariant, lambda_split, psi_expand
from .matrices import ColoringSpec, count_colorings, nabla
from .pairings import _rho_ax_primitive, canonical_pairing_key, compress, linking_pairing
from .selflinking import format_section_line, self_link_function
from .words import Nanoword


def default_betas(alphabet) -> list[frozenset]:
    """Tau-invariant beta sets: all orbit unions when few orbits, else ends."""
    orbits = [frozenset(o) for o in alphabet.orbits]
    if len(orbits) > 3:
        return [frozenset(alphabet.letters), frozenset()]
    out = []
    for mask in range(2 ** len(orbits)):
        s: frozenset = frozenset()
        for i, o in enumerate(orbits):
            if mask >> i & 1:
                s |= o
        out.append(s)
    return out


def default_coloring_specs(alphabet) -> list[ColoringSpec]:
    specs = []
    if len(alphabet.orbits) <= 3:
        for o in alphabet.orbits:
            specs.append(ColoringSpec.tricoloring(alphabet, frozenset(o)))
    return specs


class _Row(NamedTuple):
    """One field.  The callables look layer functions up at call time, so a
    patched module binding (a tracer, a test) is seen."""
    name: str
    compute: Callable          # Fingerprint -> value
    key: Callable              # value -> comparable, hashable key
    report: Callable           # (value, alphabet) -> report lines
    applies: Callable = lambda al: True      # alphabet -> bool


def _line(label: str) -> Callable:
    return lambda value, al: [label + value.format()]


def _report_lambda(lam, al) -> list[str]:
    psi = sorted(psi_expand(lam).items(),
                 key=lambda t: (t[0][0].sort_key(), t[0][1].sort_key()))
    return [f"lambda: {lam.format()}",
            *(f"        lambda_{i}{j} = {part.format()}"
              for (i, j), part in sorted(lambda_split(lam).items())),
            "psi:    " + "; ".join(f"({x.format()}) (x) ({y.format()}): {c}"
                                   for (x, y), c in psi)]


# weakest first; separation reports name the first row that differs
_ROWS = (
    _Row("gamma", lambda fp: gamma(fp.nanoword), lambda g: g.sort_key(),
         _line("gamma:  ")),
    _Row("gamma_prime", lambda fp: fp.value("gamma").to_prime(), lambda g: g.sort_key(),
         _line("gamma': ")),
    _Row("gamma_tilde", lambda fp: PiTildeElement(fp.value("gamma")), lambda g: g.sort_key(),
         _line("gamma~: ")),
    _Row("mu", lambda fp: _mu_of(fp.nanoword.alphabet, fp.value("gamma_prime")),
         lambda m: m.key(),
         lambda m, al: ["mu:     " + ("; ".join(
             f"mu({al.orbit_rep(i)},{al.orbit_rep(j)}) = {v}"
             for (i, j), v in sorted(m.entries.items())) or "0")]),
    _Row("selflink", lambda fp: self_link_function(fp.nanoword), lambda u: u.key(),
         lambda u, al: ["        " + format_section_line(u, a) for a in al.orientation]),
    _Row("rho", lambda fp: len(fp.value("pairing").letters), lambda n: n,
         lambda n, al: [f"rho:    {n}"]),
    _Row("rho_ax", lambda fp: _rho_ax_primitive(fp.value("pairing")),
         lambda t: tuple(sorted((a, x.sort_key(), c) for (a, x), c in t.items())),
         lambda t, al: [f"        rho_({a},{x.format()}) = {c}" for (a, x), c in
                        sorted(t.items(), key=lambda i: (i[0][0], i[0][1].sort_key()))]),
    _Row("pairing", lambda fp: compress(linking_pairing(fp.nanoword)),
         lambda p: canonical_pairing_key(p),
         lambda p, al: ["primitive pairing over s " + " ".join(map(str, p.letters)) + ":",
                        *("        " + "  ".join(row) for row in p.matrix_rows())]),
    _Row("colorings", lambda fp: {spec.key(): count_colorings(fp.nanoword, spec)
                                  for spec in default_coloring_specs(fp.nanoword.alphabet)},
         lambda c: tuple((k, tuple(map(tuple, v))) for k, v in sorted(c.items())),
         lambda c, al: [f"colorings mod {k[1]} beta=[{' '.join(k[0])}]: "
                        + " / ".join(" ".join(map(str, row)) for row in mat)
                        for k, mat in sorted(c.items())]),
    _Row("nabla", lambda fp: {(tuple(sorted(beta)), eps): v for beta in fp.betas
                              for eps, v in nabla(fp.nanoword, beta).items()},
         lambda d: tuple((k, v.key()) for k, v in sorted(d.items())),
         lambda d, al: [f"nabla{eps}_[{' '.join(beta) or 'empty'}] = {v.format()}"
                        for (beta, eps), v in sorted(d.items())]),
    _Row("lambda", lambda fp: lambda_invariant(fp.nanoword), lambda lam: lam.key(),
         _report_lambda),
    _Row("charseq", lambda fp: char_sequence(fp.nanoword), lambda cs: cs.key(),
         lambda cs, al: [f"charseq ({'+'.join(al.orientation)} oriented): "
                         f"{format_charseq(cs)}"],
         applies=lambda al: al.is_fixed_point_free),
)
_BY_NAME = {row.name: row for row in _ROWS}
FIELD_ORDER = tuple(_BY_NAME)
# the report prints lambda before nabla and the colorings
_REPORT_ORDER = ("gamma", "gamma_prime", "gamma_tilde", "mu", "selflink", "rho",
                 "rho_ax", "pairing", "lambda", "nabla", "colorings", "charseq")


class Fingerprint:
    """The invariants of a nanoword; each field is computed on first use and
    cached in ``fields`` as ``name -> (value, key)``.  ``timings[name]`` holds
    the seconds that field took, fields it read excluded."""

    def __init__(self, w: Nanoword, betas=None):
        self.nanoword = w.canonical()
        al = self.nanoword.alphabet
        self.betas = default_betas(al) if betas is None else betas
        self.names = tuple(row.name for row in _ROWS if row.applies(al))
        self.fields: dict = {}
        self.timings: dict = {}
        self._nested = 0.0     # seconds spent in fields computed inside the current one

    def field(self, name: str) -> tuple:
        if name not in self.fields:
            row = _BY_NAME[name]
            outer, self._nested = self._nested, 0.0
            start = perf_counter()
            value = row.compute(self)
            self.fields[name] = (value, row.key(value))
            spent = perf_counter() - start
            self.timings[name] = spent - self._nested
            self._nested = outer + spent
        return self.fields[name]

    def value(self, name: str):
        return self.field(name)[0]

    def key(self):
        return tuple((name, self.field(name)[1]) for name in self.names)

    def first_difference(self, other: "Fingerprint") -> str | None:
        """Name of the weakest field that separates, or None if all equal."""
        return next((name for name in FIELD_ORDER if name in self.names and name in other.names
                     and self.field(name)[1] != other.field(name)[1]), None)

    def __eq__(self, other):
        return isinstance(other, Fingerprint) and self.first_difference(other) is None


def compute_fingerprint(w: Nanoword, betas=None) -> Fingerprint:
    """A fingerprint with every field computed."""
    fp = Fingerprint(w, betas)
    fp.key()
    return fp


def format_fingerprint(fp: Fingerprint) -> list[str]:
    al = fp.nanoword.alphabet
    return [line for name in _REPORT_ORDER if name in fp.names
            for line in _BY_NAME[name].report(fp.value(name), al)]
