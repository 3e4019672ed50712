#!/usr/bin/env python3
"""Record the benchmark: perfbench/run.py on every workload, untraced, then traced.

    python3 scripts/bench.py --seed 11 --out BENCH_<n>.json
    python3 scripts/bench.py --seed 11 --out BENCH_<n>.json --checkout ../parent --label parent

Nothing is timed here.  Each run's two stdout lines, the run information
(Python version, core count, commit, source hash, digest, ...) and the
result, are stored as printed, except that a traced run keeps only the
``digest`` and ``src_sha256`` of its information line: its result already
holds the declared per-layer rows, and its full layer table takes 15-20 KB.
The workloads and the run length come from the checkout's BENCHMARK.json.
``--checkout`` runs the benchmark of another checkout of the repository
(default: this one).  When ``--out`` exists, the new record is appended to
its ``records``, so one file can hold the runs of a parent and of a change
at one seed.  The file holds one run per line.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    info, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
    if trace:
        info = {key: info[key] for key in ("digest", "src_sha256")}
    return {"workload": workload, "trace": trace, "info": info, "result": result}


def dumps(bench: dict) -> str:
    """``bench`` as JSON with each record's fields on its first line and each
    of its runs on a line of its own."""
    records = []
    for record in bench["records"]:
        fields = json.dumps({k: v for k, v in record.items() if k != "runs"}, sort_keys=True)
        runs = ",\n".join("  " + json.dumps(run, sort_keys=True) for run in record["runs"])
        records.append(f' {fields[:-1]}, "runs": [\n{runs}\n ]}}')
    return '{"records": [\n' + ",\n".join(records) + "\n]}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write or extend")
    parser.add_argument("--checkout", default=str(ROOT),
                        help="repository checkout whose benchmark runs (default: this one)")
    parser.add_argument("--label", default="change", help="name of this record")
    args = parser.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    runs = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            runs.append(run(checkout, workload, args.seed, seconds, trace))
            print(f"{args.label} {workload} trace={trace}: "
                  f"correct={runs[-1]['result']['correct']}", file=sys.stderr)
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {"records": []}
    bench["records"].append({"label": args.label, "seed": args.seed, "seconds": seconds,
                             "runs": runs})
    out.write_text(dumps(bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
