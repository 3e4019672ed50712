"""Command-line front end.

Verdicts are three-valued: exit 0 when a verdict was reached, 2 when the
answer is Unknown (budget), 1 on errors or a classification DISAGREES.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .classify import FAMILIES, classify
from .errors import InvalidSpec, NanowordError, PreconditionViolated
from .fingerprint import Fingerprint, format_fingerprint
from .groups import SubgroupOfPi, parse_pi
from .interlacement import covering, letter_classes
from .keis import char_sequence, format_charseq
from .lambdainv import lambda_invariant, lambda_split, psi_expand
from .matrices import ColoringSpec, count_colorings, nabla
from .moves import (Certificate, HomotopyData, homotopic_budget, norm_upper_bound, parse_move,
                    search_contractible, search_homotopic, verify_certificate)
from .records import parse_file, read_text
from .selflinking import norm_lower_bound
from .words import empty_nanoword, format_nanoword

SHORT_SEARCH_STATES = 1000  # homotopic's first search costs less than the fields past gamma


class _Out:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, record: dict, lines: list[str]):
        if self.fmt == "json-lines":
            print(json.dumps(record, sort_keys=True))
        else:
            for line in lines:
                print(line)


def _parse_beta(alphabet, text: str):
    if text.strip() in ("", "none"):
        return frozenset()
    if text.strip() == "all":
        return frozenset(alphabet.letters)
    return frozenset(text.replace(",", " ").split())


def _parse_units(text: str):
    out = {}
    for item in text.replace(",", " ").split():
        name, _, val = item.partition("=")
        try:
            value = int(val)
        except ValueError:
            raise InvalidSpec(f"unit value {item!r} is not letter=integer") from None
        if name in out:
            raise InvalidSpec(f"unit value given twice on {name!r}")
        out[name] = value
    return out


def _load_nanoword(path: str):
    rec = parse_file(path)
    w = rec.nanoword()
    return rec, w


def cmd_invariants(args, out: _Out) -> int:
    rec, w = _load_nanoword(args.input)
    betas = [_parse_beta(rec.alphabet, b) for b in args.beta] if args.beta else None
    fp = Fingerprint(w, betas=betas)
    lines = [f"input:  {format_nanoword(w)}", f"length: {len(w.word)}"]
    lines += format_fingerprint(fp)
    out.emit({"input": format_nanoword(w), "length": len(w.word),
              "report": format_fingerprint(fp)}, lines)
    if args.stats:
        for name in fp.names:
            print(f"time {name}: {fp.timings[name]:.6f} s", file=sys.stderr)
    return 0


def cmd_contract(args, out: _Out) -> int:
    rec, w = _load_nanoword(args.input)
    data = HomotopyData(rec.alphabet)
    inserts = None if args.insert is None else tuple(x for x in args.insert.split(",") if x)
    cert = search_contractible(w, data, args.max_length, args.max_states, insert_values=inserts,
                               use_macros=not args.no_macros)
    if cert is None:
        out.emit({"verdict": "UNKNOWN"}, ["UNKNOWN (budget exhausted)"])
        return 2
    text = cert.format()
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(text)
    out.emit({"verdict": "CONTRACTIBLE", "moves": [m.format() for m in cert.moves]},
             ["CONTRACTIBLE", *[m.format() for m in cert.moves]])
    return 0


def cmd_homotopic(args, out: _Out) -> int:
    """Cheapest proof first: gamma, a short search, the fields, the full search. A budget
    decides only when a search stops, so the verdict is that of the fields first."""
    rec1, w1 = _load_nanoword(args.input1)
    rec2, w2 = _load_nanoword(args.input2)
    if rec1.alphabet != rec2.alphabet:
        raise NanowordError("the two records use different alphabets")
    data = HomotopyData(rec1.alphabet)
    max_length = homotopic_budget(w1, w2, data, args.max_length, args.max_states)
    fp1, fp2 = Fingerprint(w1), Fingerprint(w2)
    short = min(SHORT_SEARCH_STATES, args.max_states)
    gamma_agrees = fp1.field("gamma")[1] == fp2.field("gamma")[1]
    cert = search_homotopic(w1, w2, data, max_length, short) if gamma_agrees else None
    diff = None if cert is not None else fp1.first_difference(fp2)
    if diff is None and cert is None and short < args.max_states:
        cert = search_homotopic(w1, w2, data, max_length, args.max_states)
    if diff is not None:
        out.emit({"verdict": "NON-HOMOTOPIC", "separated_by": diff},
                 [f"NON-HOMOTOPIC (separated by {diff})"])
        return 0
    if cert is None:
        out.emit({"verdict": "UNKNOWN"}, ["UNKNOWN (equal fingerprints, no certificate)"])
        return 2
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(cert.format())
    out.emit({"verdict": "HOMOTOPIC", "moves": [m.format() for m in cert.moves]},
             ["HOMOTOPIC", *[m.format() for m in cert.moves]])
    return 0


def cmd_covering(args, out: _Out) -> int:
    rec, w = _load_nanoword(args.input)
    gens = [parse_pi(rec.alphabet, g) for g in args.subgroup.split(",") if g.strip()]
    h = SubgroupOfPi(rec.alphabet, gens)
    v = covering(w, h).canonical()
    classes = letter_classes(w.canonical())
    lines = [f"classes: " + "  ".join(f"[{x}]={c.format()}"
                                      for x, c in sorted(classes.items())),
             f"covering: {format_nanoword(v)}"]
    out.emit({"covering": format_nanoword(v)}, lines)
    return 0


def cmd_colorings(args, out: _Out) -> int:
    rec, w = _load_nanoword(args.input)
    beta = _parse_beta(rec.alphabet, args.beta)
    if args.tricolor:
        spec = ColoringSpec.tricoloring(rec.alphabet, beta)
    else:
        p = _parse_units(args.p) if args.p else None
        pb = _parse_units(args.pb) if args.pb else None
        spec = ColoringSpec.make(rec.alphabet, beta, args.mod, p, pb)
    counts = count_colorings(w, spec)
    lines = [" ".join(str(c) for c in row) for row in counts]
    out.emit({"counts": counts}, lines)
    return 0


def cmd_nabla(args, out: _Out) -> int:
    rec, w = _load_nanoword(args.input)
    beta = _parse_beta(rec.alphabet, args.beta)
    val = nabla(w, beta)[args.sign]
    out.emit({"nabla": val.format()}, [val.format()])
    return 0


def cmd_lambda(args, out: _Out) -> int:
    rec, w = _load_nanoword(args.input)
    lam = lambda_invariant(w)
    lines = [f"lambda = {lam.format()}"]
    for (i, j), part in sorted(lambda_split(lam).items()):
        lines.append(f"lambda_{i}{j} = {part.format()}")
    for (x, y), c in sorted(psi_expand(lam).items(),
                            key=lambda t: (t[0][0].sort_key(), t[0][1].sort_key())):
        lines.append(f"psi ({x.format()}) (x) ({y.format()}) : {c}")
    out.emit({"lambda": lam.format()}, lines)
    return 0


def cmd_charseq(args, out: _Out) -> int:
    rec, w = _load_nanoword(args.input)
    cs = char_sequence(w)
    header = f"alpha0 = {' '.join(rec.alphabet.orientation)}"
    out.emit({"alpha0": rec.alphabet.orientation, "charseq": format_charseq(cs)},
             [header, format_charseq(cs)])
    return 0


def cmd_norm(args, out: _Out) -> int:
    rec, w = _load_nanoword(args.input)
    data = HomotopyData(rec.alphabet)
    low = norm_lower_bound(w.canonical())
    high = norm_upper_bound(w, data, args.max_states,
                            max_length=args.max_length)
    lines = [f"norm >= {low}", f"norm <= {high}"]
    out.emit({"lower": low, "upper": high}, lines)
    return 0


def cmd_classify(args, out: _Out) -> int:
    rec = parse_file(args.input)
    result = classify(args.family, rec.alphabet,
                      max_length=args.max_length, max_states=args.max_states)
    lines = result.format()
    out.emit({"kind": args.family, "agrees": result.agrees,
              "rows": [(str(r.label), r.status, sorted(r.members)) for r in result.rows]},
             lines)
    if result.agrees:
        return 0
    if any(r.status == "DISAGREES" for r in result.rows):
        return 1
    return 2


def cmd_verify_cert(args, out: _Out) -> int:
    rec, w = _load_nanoword(args.input)
    nums, moves = [], []
    for num, raw in enumerate(read_text(args.cert).split("\n"), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            nums.append(num)
            moves.append(parse_move(text, line=num))
    if args.target:
        _, target = _load_nanoword(args.target)
    else:
        target = empty_nanoword(rec.alphabet)
    try:
        ok = verify_certificate(Certificate(w, target, tuple(moves)), HomotopyData(rec.alphabet))
    except PreconditionViolated as exc:
        raise PreconditionViolated(f"line {nums[exc.index]}: {exc}") from None
    out.emit({"verified": ok}, ["VERIFIED" if ok else "REPLAY MISMATCH"])
    return 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It holds no command functions:
    ``main`` looks ``cmd_<command>`` up at call time, so a patched module
    binding (a tracer, a test) is seen."""
    top = argparse.ArgumentParser(
        prog="nanowords",
        description="homotopy invariants and certificate search for words "
                    "and nanowords over an involuted alphabet")
    top.add_argument("--format", choices=("text", "json-lines"), default="text")
    sub = top.add_subparsers(dest="command", required=True)

    def budgets(p, states=200000):
        p.add_argument("--max-length", type=int, default=None)
        p.add_argument("--max-states", type=int, default=states)

    p = sub.add_parser("invariants", help="print the full invariant fingerprint")
    p.add_argument("input")
    p.add_argument("--beta", action="append",
                   help="tau-invariant subset (letters, comma separated); repeatable")
    p.add_argument("--stats", action="store_true",
                   help="print the seconds each field took to stderr")

    p = sub.add_parser("contract", help="search for a contracting certificate")
    p.add_argument("input")
    budgets(p)
    p.add_argument("--insert", help="letters allowed for insertion moves")
    p.add_argument("--no-macros", action="store_true")
    p.add_argument("--cert", help="write the certificate to this file")

    p = sub.add_parser("homotopic", help="decide homotopy of two records")
    p.add_argument("input1")
    p.add_argument("input2")
    budgets(p)
    p.add_argument("--cert")

    p = sub.add_parser("covering", help="delete letters with classes outside H")
    p.add_argument("input")
    p.add_argument("--subgroup", required=True,
                   help="generators of H, e.g. \"ab, a^2\"")

    p = sub.add_parser("colorings", help="count colorings with given input/output")
    p.add_argument("input")
    p.add_argument("--beta", default="")
    p.add_argument("--mod", type=int, default=3)
    p.add_argument("--tricolor", action="store_true")
    p.add_argument("--p", help="unit values, e.g. \"a=1,b=1\"")
    p.add_argument("--pb", help="bullet unit values")

    p = sub.add_parser("nabla", help="sign-normalized determinant invariant")
    p.add_argument("input")
    p.add_argument("--beta", default="all")
    p.add_argument("--sign", choices=("+", "-"), default="+")

    p = sub.add_parser("lambda", help="path-sum invariant, split and psi table")
    p.add_argument("input")

    p = sub.add_parser("charseq", help="reduced characteristic sequence")
    p.add_argument("input")

    p = sub.add_parser("norm", help="lower and upper bounds for the norm")
    p.add_argument("input")
    budgets(p, states=20000)

    p = sub.add_parser("classify", help="reproduce a classification table")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("input", help="record carrying the alphabet")
    budgets(p)

    p = sub.add_parser("verify-cert", help="replay a certificate")
    p.add_argument("input")
    p.add_argument("cert")
    p.add_argument("--target", help="expected end record (default: empty)")
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _Out(args.format)
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return fn(args, out)
    except (NanowordError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
