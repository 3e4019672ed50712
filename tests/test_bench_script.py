"""The benchmark recorder's file layout."""

import json
import runpy
from pathlib import Path

BENCH = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "bench.py"))


def test_records_are_written_one_run_per_line():
    rows = {"wall_s": {"unit": "s", "value": 1.5}, "moves.total_s": {"unit": "s", "value": 0.25}}
    run = {"workload": "fingerprint-sweep", "trace": 1,
           "info": {"digest": "ab", "src_sha256": "cd"},
           "result": {"correct": True, "failed": 0, "metrics": rows}}
    bench = {"records": [{"label": "parent", "seed": 11, "seconds": 20, "runs": [run, run]},
                         {"label": "change", "seed": 11, "seconds": 20, "runs": [run]}]}
    text = BENCH["dumps"](bench)
    assert json.loads(text) == bench
    lines = text.splitlines()
    assert len(lines) == 2 + 2 * 2 + 3  # brackets, record heads and tails, runs
    assert sum(json.loads(line.strip().rstrip(",")) == run for line in lines
               if line.strip().startswith('{"info"')) == 3
