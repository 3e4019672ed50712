"""Aggregate of every homotopy invariant the package computes.

Equal fingerprints are necessary for homotopy; any differing field is a
certificate of non-homotopy and the report names the weakest field that
separates, mirroring how the classification proofs assign one invariant to
each separated pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .interlacement import gamma, gamma_prime, gamma_tilde, mu
from .keis import char_sequence, format_charseq
from .lambdainv import lambda_invariant, lambda_split, psi_expand
from .matrices import ColoringSpec, count_colorings, nabla
from .pairings import (canonical_pairing_key, compress, linking_pairing,
                       pairings_isomorphic, rho, rho_ax)
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


# field names ordered weakest-first; separation reports use the first hit
FIELD_ORDER = ("gamma", "gamma_prime", "gamma_tilde", "mu", "selflink",
               "rho", "rho_ax", "pairing", "colorings", "nabla", "lambda",
               "charseq")


@dataclass
class Fingerprint:
    nanoword: Nanoword
    fields: dict

    def key(self):
        out = []
        for name in FIELD_ORDER:
            if name not in self.fields:
                continue
            out.append((name, self.fields[name][1]))
        return tuple(out)

    def first_difference(self, other: "Fingerprint") -> str | None:
        """Name of the weakest field that separates, or None if all equal."""
        for name in FIELD_ORDER:
            if name not in self.fields or name not in other.fields:
                continue
            if name == "pairing":
                if not pairings_isomorphic(self.fields[name][0], other.fields[name][0]):
                    return name
                continue
            if self.fields[name][1] != other.fields[name][1]:
                return name
        return None

    def __eq__(self, other):
        return isinstance(other, Fingerprint) and self.first_difference(other) is None


def compute_fingerprint(w: Nanoword, betas=None, coloring_specs=None,
                        include_charseq: bool | None = None) -> Fingerprint:
    w = w.canonical()
    al = w.alphabet
    betas = default_betas(al) if betas is None else betas
    coloring_specs = default_coloring_specs(al) if coloring_specs is None else coloring_specs
    if include_charseq is None:
        include_charseq = al.is_fixed_point_free

    fields: dict = {}
    g = gamma(w)
    fields["gamma"] = (g, g.sort_key())
    gp = gamma_prime(w)
    fields["gamma_prime"] = (gp, gp.sort_key())
    gt = gamma_tilde(w)
    fields["gamma_tilde"] = (gt, gt.sort_key())
    m = mu(w)
    fields["mu"] = (m, m.key())
    u = self_link_function(w)
    fields["selflink"] = (u, u.key())

    prim = compress(linking_pairing(w))
    fields["pairing"] = (prim, canonical_pairing_key(prim))
    fields["rho"] = (len(prim.letters), len(prim.letters))
    table = rho_ax(prim)
    fields["rho_ax"] = (table, tuple(sorted((a, x.sort_key(), c)
                                            for (a, x), c in table.items())))

    lam = lambda_invariant(w)
    fields["lambda"] = (lam, lam.key())

    nabla_vals = {}
    for beta in betas:
        for eps in ("+", "-"):
            nabla_vals[(tuple(sorted(beta)), eps)] = nabla(w, beta, eps)
    fields["nabla"] = (nabla_vals,
                       tuple((k, v.key()) for k, v in sorted(nabla_vals.items())))

    col_vals = {}
    for spec in coloring_specs:
        col_vals[spec.key()] = count_colorings(w, spec)
    fields["colorings"] = (col_vals,
                           tuple((k, tuple(map(tuple, v)))
                                 for k, v in sorted(col_vals.items())))

    if include_charseq:
        cs = char_sequence(w)
        fields["charseq"] = (cs, cs.key())
    return Fingerprint(w, fields)


def format_fingerprint(fp: Fingerprint) -> list[str]:
    w = fp.nanoword
    lines = []
    lines.append(f"gamma:  {fp.fields['gamma'][0].format()}")
    lines.append(f"gamma': {fp.fields['gamma_prime'][0].format()}")
    lines.append(f"gamma~: {fp.fields['gamma_tilde'][0].format()}")
    m = fp.fields["mu"][0]
    al = w.alphabet
    mu_cells = []
    for (i, j), v in sorted(m.entries.items()):
        mu_cells.append(f"mu({al.orbit_rep(i)},{al.orbit_rep(j)}) = {v}")
    lines.append("mu:     " + ("; ".join(mu_cells) if mu_cells else "0"))
    u = fp.fields["selflink"][0]
    for a in al.orientation:
        lines.append("        " + format_section_line(u, a))
    prim = fp.fields["pairing"][0]
    lines.append(f"rho:    {fp.fields['rho'][0]}")
    for (a, x), c in sorted(fp.fields["rho_ax"][0].items(),
                            key=lambda t: (t[0][0], t[0][1].sort_key())):
        lines.append(f"        rho_({a},{x.format()}) = {c}")
    lines.append("primitive pairing over s " + " ".join(str(x) for x in prim.letters) + ":")
    for row in prim.matrix_rows():
        lines.append("        " + "  ".join(row))
    lam = fp.fields["lambda"][0]
    lines.append(f"lambda: {lam.format()}")
    for (i, j), part in sorted(lambda_split(lam).items()):
        lines.append(f"        lambda_{i}{j} = {part.format()}")
    psi_tab = psi_expand(lam)
    cells = [f"({x.format()}) (x) ({y.format()}): {c}"
             for (x, y), c in sorted(psi_tab.items(),
                                     key=lambda t: (t[0][0].sort_key(), t[0][1].sort_key()))]
    lines.append("psi:    " + "; ".join(cells))
    for (beta, eps), val in sorted(fp.fields["nabla"][0].items()):
        lines.append(f"nabla{eps}_[{' '.join(beta) or 'empty'}] = {val.format()}")
    for key, mat in sorted(fp.fields["colorings"][0].items()):
        beta = " ".join(key[0])
        lines.append(f"colorings mod {key[1]} beta=[{beta}]: " +
                     " / ".join(" ".join(str(c) for c in row) for row in mat))
    if "charseq" in fp.fields:
        lines.append(f"charseq ({'+'.join(al.orientation)} oriented): "
                     f"{format_charseq(fp.fields['charseq'][0])}")
    return lines
