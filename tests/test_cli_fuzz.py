"""Seeded fuzz of the command line: mutated records and certificates run
through every command in process.  Bad input must give exit code 1 and one
``error:`` line, never an exception out of ``main``."""

import random

from nanowords.cli import main

RECORDS = [
    "alphabet: a A b B\ninvolution: a<->A b<->B\nword: X Y X Y\nproj: X=a Y=b\n",
    "alphabet: a b\ninvolution: a<->a b<->b\nword: A B C C A B\nproj: A=a B=b C=b\n",
    "alphabet: a A c\ninvolution: a<->A c<->c\norientation: A c\nplainword: acac\n",
    "alphabet: a b\nplainword: aabab  # comment\n",
    "alphabet: c\nword:\nproj:\n",
]
CERTS = [
    "# header\nM1- @pos=1\n",
    "M2- @pos=(1,3)\nM1+ @pos=1 insert=(a)\nM1- @pos=1\n",
    "M3- @pos=(1,3,5)\nLI+ @pos=(1,4,7)\nL32- @pos=(2,5)\n",
    "M1- @pos=3\nM1+ @pos=3 insert=(b)\n",
]
# characters a mutation inserts; b"\xff" makes the file invalid UTF-8
PIECES = [b"a", b"A", b"b", b"c", b"X", b"1", b"0", b"-", b"+", b"=", b":", b"#",
          b" ", b"\n", b",", b"(", b")", b"<->", b"^", b"@pos=", b"insert=", b"\xff",
          b"word:", b"proj:", b"plainword:", b"involution:", b"orientation:"]

# "REC", "REC2" and "CERT" stand for the mutated files
COMMANDS = [
    ["invariants", "REC"],
    ["contract", "REC", "--max-states", "300"],
    ["homotopic", "REC", "REC2", "--max-states", "300"],
    ["covering", "REC", "--subgroup", "a, b^2"],
    ["colorings", "REC", "--beta", "all", "--mod", "4"],
    ["colorings", "REC", "--beta", "a", "--tricolor"],
    ["nabla", "REC", "--beta", "a"],
    ["lambda", "REC"],
    ["charseq", "REC"],
    ["norm", "REC", "--max-states", "300"],
    ["verify-cert", "REC", "CERT"],
    ["verify-cert", "REC", "CERT", "--target", "REC2"],
]
# classify reads only the record's alphabet and a run takes up to 0.15 s,
# so it gets every 50th case
CLASSIFY = ["classify", "nanowords4", "REC", "--max-states", "300"]


def _mutate(text: str, rng: random.Random) -> bytes:
    data = text.encode()
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(data) + 1)
        op = rng.randrange(5)
        if op == 0:
            data = data[:i] + rng.choice(PIECES) + data[i:]
        elif op == 1:
            data = data[:i] + data[i + rng.randint(1, 4):]
        elif op in (2, 3):   # repeat a line, or a word within the text
            sep = b"\n" if op == 2 else b" "
            parts = data.split(sep)
            k = rng.randrange(len(parts))
            parts.insert(rng.randrange(len(parts) + 1) if op == 2 else k, parts[k])
            data = sep.join(parts)
        else:
            data = data[:i]
    return data


def test_cli_survives_mutated_inputs(tmp_path, capsys):
    rng = random.Random(2005)
    paths = {name: tmp_path / name for name in ("REC", "REC2", "CERT")}
    codes = {0: 0, 1: 0, 2: 0}
    for case in range(1000):
        command = CLASSIFY if case % 50 == 0 else COMMANDS[case % len(COMMANDS)]
        record = rng.choice(RECORDS)
        paths["REC"].write_bytes(_mutate(record, rng))
        paths["REC2"].write_bytes(_mutate(record, rng))
        paths["CERT"].write_bytes(_mutate(rng.choice(CERTS), rng))
        argv = [str(paths[arg]) if arg in paths else arg for arg in command]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in codes, (case, argv)
        codes[code] += 1
        assert "Traceback" not in out + err, (case, argv)
        if err:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, \
                (case, argv, err)
        elif code == 1:   # a verdict, not an error
            assert "REPLAY MISMATCH" in out or "DISAGREES" in out, (case, argv, out)
    # the mutations reach past the parsers as well as into them
    assert all(codes.values()), codes
