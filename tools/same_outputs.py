"""Check that this tree's relrbf CLI writes the same bytes as another source tree.

    python tools/same_outputs.py --against ../parent/src

Run from anywhere; SRC is a `src` directory holding a `relrbf` package.  The
script runs one fixed matrix of `relrbf` commands twice, each time in a fresh
temporary directory: once with this tree's `src` on PYTHONPATH and once with
SRC.  For every command it compares the exit code, stdout, stderr and the
sha256 of each file the command wrote.  It prints the differences, then its
verdict (how many commands differ) and each tree's wall time for the whole
matrix, and exits 1 on any difference, 0 when there is none; the wall times
never change the exit code.  The matrix trains in configs the benchmark never
runs (medoid, pmds, growth, the pool, overflowing steps), so its wall times
show whether a speed change slowed any of them.  Every process gets one BLAS
thread, so two runs of one tree on one host agree byte for byte.

The matrix:
- each benchmark workload's command sequence (`perfbench/workloads.py`) at
  seeds 0 and 1, at full size;
- medoid, stratified, `compare_prototype_modes`, `transform: cmds` (on a
  realizable graph, which it leaves as it is, and on a non-realizable one,
  which it rebuilds), `transform: pmds` and `workers: 2` configs, each
  through `train`, `eval`, `duality` and `diagnose`, and a non-realizable
  graph whose bandwidth steps overflow;
- `transform --method cmds` and `--method pmds` on a graph built from
  features (whose entries the command never computes) and on a powered
  graph (the full spectrum);
- a `duality` whose runs grow inside its 40 epochs (`patience_grow: 1`);
- `diagnose` without `--out` on the medoid config, which writes nothing and
  prints VAT's first index;
- a tie-heavy `adjacency-csv` graph (integer squared distances on a grid,
  the largest in four rows, most of Prim's steps tied) through `diagnose
  --out` and `diagnose` without `--out`, so that a change of VAT's start row
  or tie-break shows;
- an ingested graph read back as `adjacency-csv` (a graph without features,
  its entries read at once) through `train`, `eval`, `duality`, `diagnose`
  and `transform --method cmds`, and the `transform: cmds` and
  `transform: pmds` checkpoints evaluated on the read-back graph;
- that read-back graph with `power: 1.5`, raised as it is read, through
  `train` and `eval`;
- a 20-node graph whose kernel overflows at every node of the run at seed 0
  (1e6 between nodes of one parity, 0 across), so that no deviation is
  finite, through `train --out` and `eval` of its `run_0.json`;
- inputs that must exit 2, among them a checkpoint of that graph with
  `true` in `sigma`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import COMMAND_ARGS, WORKLOADS  # noqa: E402

WORKLOAD_SEEDS = (0, 1)
# "<src>/relrbf/x.py:12:" in a warning, '<src>/relrbf/x.py", line 12' in a traceback
SOURCE_LINE = re.compile(r'(<src>/[\w/]+\.py(?::|", line ))\d+')

BLOBS = {"kind": "synthetic-blobs", "blobs": {"n": 60, "classes": 2, "sep": 8.0, "seed": 3}}
TRAIN = {"c_init": 2, "c_max": 4, "seed": 0, "max_epochs": 40, "patience_grow": 2}
BASE = {"dataset": BLOBS, "train": TRAIN, "monte_carlo": 2}
POWERED = {**BLOBS, "power": 1.5, "blobs": {"n": 120, "classes": 3, "dim": 5, "seed": 1}}

# name -> experiment config, each run through train, eval, duality, diagnose
CONFIGS = {
    "medoid": {**BASE, "train": {**TRAIN, "prototype_mode": "medoid"}},
    "stratified": {**BASE, "dataset": POWERED, "train": {**TRAIN, "stratify_split": True}},
    "compare": {**BASE, "compare_prototype_modes": True},
    "cmds": {**BASE, "transform": "cmds"},
    "cmds-powered": {**BASE, "dataset": POWERED, "transform": "cmds"},
    "pmds": {**BASE, "dataset": POWERED, "transform": "pmds"},
    "workers": {**BASE, "monte_carlo": 5, "workers": 2},
    # negative distances: the best network's kernel overflows at test nodes
    "overflow": {
        **BASE,
        "dataset": {**BLOBS, "power": 1.3,
                    "blobs": {"n": 300, "classes": 3, "dim": 5, "sep": 2.0, "seed": 4}},
        "train": {"c_init": 3, "c_max": 8, "max_epochs": 150, "patience_grow": 2,
                  "stratify_split": True, "seed": 11},
    },
}
# bandwidth steps that overflow to sigma = inf at train seeds 1 and 4
SIGMA_INF = {
    **BASE,
    "dataset": {**BLOBS, "power": 1.5,
                "blobs": {"n": 300, "classes": 3, "dim": 5, "sep": 2.0, "seed": 5}},
    "train": {"c_init": 3, "c_max": 8, "max_epochs": 120, "patience_grow": 2},
    "monte_carlo": 1,
}
# prototype growth at epochs inside the duality window
GROWTH = {
    **BASE,
    "dataset": {**BLOBS, "power": 1.5,
                "blobs": {"n": 60, "classes": 3, "dim": 5, "sep": 2.0, "seed": 1}},
    "train": {"c_init": 2, "c_max": 5, "patience_grow": 1, "seed": 1},
    "duality": {"epochs": 40},
}
# squared distances on a 5 x 6 integer grid: the largest, 41, joins two
# pairs of corners, so four rows hold it
GRID = np.indices((5, 6)).reshape(2, -1).T
TIES = {"dataset": {"kind": "adjacency-csv", "path": "ties.csv"}}
READBACK = {
    **BASE,
    "dataset": {"kind": "adjacency-csv", "path": "medoid/ingest/adjacency.npy",
                "labels_path": "medoid/ingest/labels.csv"},
}
READBACK_POWERED = {**READBACK, "dataset": {**READBACK["dataset"], "power": 1.5}}
# 1e6 between distinct nodes of one parity, 0 across; labels are the parities
PARITY = np.arange(20) % 2
ALL_OVERFLOW_GRAPH = np.where(PARITY[:, None] == PARITY, 1e6, 0.0) * (1 - np.eye(20))
ALL_OVERFLOW = {
    "dataset": {"kind": "adjacency-csv", "path": "all-overflow.npy",
                "labels_path": "all-overflow.csv"},
    "train": {"c_init": 2, "c_max": 2, "max_epochs": 20},
}
# a checkpoint of that graph, valid but for the boolean in `sigma`
SIGMA_BOOLEAN = {
    "w0": [0.0, 0.0], "W": [[1.0, 0.0]], "sigma": [True], "prototypes": [[1.0] + [0.0] * 9],
    "split": {"train": list(range(10)), "test": list(range(10, 15)), "val": list(range(15, 20))},
    "graph_sha256": hashlib.sha256(ALL_OVERFLOW_GRAPH).hexdigest(),
}
# name -> (config, command and its options) that must exit 2
BAD = {
    "misspelled": ({"dataset": {**BLOBS, "blob": {"n": 12}}}, "ingest"),
    "heart": ({"dataset": {"kind": "heart-cleveland", "path": "heart.data"}}, "ingest"),
    "stray": ({"dataset": {**BLOBS, "path": "blobs.data"}}, "ingest"),
    "boolean": ({**BASE, "train": {**TRAIN, "sigma_min": True}}, "train"),
    "empty-npy": ({"dataset": {"kind": "adjacency-csv", "path": "empty.npy"}}, "ingest"),
    "empty-csv": ({"dataset": {"kind": "adjacency-csv", "path": "empty.csv"}}, "ingest"),
    "sigma-negative": ({**BASE, "train": {**TRAIN, "sigma_init_range": [-1.0, 0.5]}}, "train"),
    "sigma-zero": ({**BASE, "train": {**TRAIN, "sigma_init_range": [0.0, 0.5]}}, "duality"),
    "sigma-boolean": (ALL_OVERFLOW, "eval --checkpoint sigma-boolean-checkpoint.json"),
}
FILES = {
    "heart.data": b"63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,abc,0\n",
    "empty.csv": b"",
    "all-overflow.csv": "".join(f"{y}\n" for y in PARITY).encode(),
    "sigma-boolean-checkpoint.json": json.dumps(SIGMA_BOOLEAN).encode(),
}


def matrix(work: Path) -> list[list[str]]:
    """Write the matrix's input files into `work`; return its argv lists."""
    def config(name, cfg):
        (work / f"{name}.json").write_text(json.dumps(cfg))
        return ["--config", f"{name}.json"]

    for name, data in FILES.items():
        (work / name).write_bytes(data)
    np.save(work / "empty.npy", np.zeros((0, 0)))
    np.save(work / "all-overflow.npy", ALL_OVERFLOW_GRAPH)
    ties = ((GRID[:, None] - GRID[None]) ** 2).sum(axis=2)
    np.savetxt(work / "ties.csv", ties, delimiter=",", fmt="%d")
    runs = []
    for w in WORKLOADS.values():
        for seed in WORKLOAD_SEEDS:
            name = f"{w.name}-{seed}"
            cfg = config(name, w.config(seed))
            runs += [COMMAND_ARGS[c] + cfg + ["--out", f"{name}/{c}"] for c in w.commands]
    for name, raw in CONFIGS.items():
        cfg = config(name, raw)
        runs += [
            ["ingest", *cfg, "--out", f"{name}/ingest"],
            ["train", *cfg, "--out", f"{name}/train"],
            ["eval", *cfg, "--checkpoint", f"{name}/train/checkpoints/run_1.json",
             "--out", f"{name}/eval"],
            ["duality", *cfg, "--out", f"{name}/duality"],
            ["diagnose", *cfg, "--out", f"{name}/diagnose"],
        ]
    # both spectrum routes, each with both methods: the features' SVD of a
    # graph built from features, and the full eigendecomposition of a
    # powered graph (here) and of a read-back one (below)
    runs += [
        ["transform", "--config", f"{name}.json", "--method", method,
         "--out", f"{name}/transform-{method}"]
        for name in ("medoid", "pmds") for method in ("cmds", "pmds")
    ]
    cfg = config("sigma-inf", SIGMA_INF)
    runs += [["train", *cfg, "--seed", seed, "--out", f"sigma-inf/train-{seed}"]
             for seed in ("1", "4")]
    runs += [["duality", *config("growth", GROWTH), "--out", "growth/duality"]]
    runs += [["diagnose", "--config", "medoid.json"]]
    cfg = config("ties", TIES)
    runs += [["diagnose", *cfg, "--out", "ties/diagnose"], ["diagnose", *cfg]]
    cfg = config("readback", READBACK)
    runs += [
        ["ingest", *cfg],
        ["train", *cfg, "--out", "readback/train"],
        ["eval", *cfg, "--checkpoint", "medoid/train/checkpoints/run_1.json",
         "--out", "readback/eval"],
        ["duality", *cfg, "--out", "readback/duality"],
        ["diagnose", *cfg, "--out", "readback/diagnose"],
        ["transform", *cfg, "--method", "cmds", "--out", "readback/transform-cmds"],
        # a checkpoint of another graph
        ["eval", *config("other", {**BASE, "dataset": POWERED}),
         "--checkpoint", "medoid/train/checkpoints/run_1.json"],
    ]
    cfg = config("readback-powered", READBACK_POWERED)
    runs += [
        ["train", *cfg, "--out", "readback-powered/train"],
        ["eval", *cfg, "--checkpoint", "readback-powered/train/checkpoints/run_1.json",
         "--out", "readback-powered/eval"],
    ]
    cfg = config("all-overflow", ALL_OVERFLOW)
    runs += [
        ["train", *cfg, "--seed", "0", "--out", "all-overflow/train"],
        ["eval", *cfg, "--checkpoint", "all-overflow/train/checkpoints/run_0.json",
         "--out", "all-overflow/eval"],
    ]
    # a transform's checkpoint, evaluated on its read-back graph
    for name in ("cmds", "pmds"):
        dataset = {"kind": "adjacency-csv", "path": f"{name}/ingest/adjacency.npy",
                   "labels_path": f"{name}/ingest/labels.csv"}
        cfg = config(f"readback-{name}", {**BASE, "dataset": dataset, "transform": name})
        runs += [["eval", *cfg, "--checkpoint", f"{name}/train/checkpoints/run_1.json",
                  "--out", f"readback-{name}/eval"]]
    runs += [[*command.split(), *config(name, raw)] for name, (raw, command) in BAD.items()]
    return runs


def snapshot(work: Path, seen: dict) -> dict:
    """sha256 of every file under `work` that is new or changed since `seen`
    (path -> (size, mtime, digest)), which is updated in place."""
    written = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        rel, stat = str(path.relative_to(work)), path.stat()
        key = (stat.st_size, stat.st_mtime_ns)
        if rel in seen and seen[rel][:2] == key:
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if seen.get(rel, (None, None, None))[2] != digest:
            written[rel] = digest
        seen[rel] = (*key, digest)
    return written


def run_matrix(src: Path) -> list[dict]:
    """Run the matrix with `src` on PYTHONPATH; one record per command."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    records = []
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:

        def clean(text):
            # a warning or traceback names its source line, which any edit
            # above that line moves
            text = text.replace(str(src), "<src>").replace(tmp, "<work>")
            return SOURCE_LINE.sub(r"\1<line>", text)

        work = Path(tmp)
        seen: dict = {}
        for argv in matrix(work):
            snapshot(work, seen)
            proc = subprocess.run([sys.executable, "-m", "relrbf.cli", *argv], cwd=work,
                                  env=env, capture_output=True, text=True)
            records.append({
                "argv": " ".join(argv), "exit code": proc.returncode,
                "stdout": clean(proc.stdout), "stderr": clean(proc.stderr),
                "files": snapshot(work, seen),
            })
    return records


def differences(ours: dict, theirs: dict) -> list[str]:
    lines = []
    for key in ("exit code", "stdout", "stderr"):
        if ours[key] != theirs[key]:
            lines.append(f"  {key}:\n    this:    {ours[key]!r}\n    against: {theirs[key]!r}")
    for path in sorted(set(ours["files"]) | set(theirs["files"])):
        a, b = ours["files"].get(path, "not written"), theirs["files"].get(path, "not written")
        if a != b:
            lines.append(f"  {path}: {a[:12]} against {b[:12]}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, type=Path,
                    help="the src directory of the tree to compare with")
    src = ap.parse_args(argv).against.resolve()
    if not (src / "relrbf" / "cli.py").is_file():
        print(f"error: no relrbf package under {src}", file=sys.stderr)
        return 2
    trees, records, walls = (ROOT / "src", src), [], []
    for tree in trees:
        start = time.perf_counter()
        records.append(run_matrix(tree))
        walls.append(time.perf_counter() - start)
    found = 0
    for ours, theirs in zip(*records):
        lines = differences(ours, theirs)
        if lines:
            found += 1
            print(f"relrbf {ours['argv']}", *lines, sep="\n")
    print(f"{found} of {len(records[0])} commands differ")
    for name, tree, wall in zip(("this", "against"), trees, walls):
        print(f"{name} tree's matrix: {wall:.1f} s wall ({tree})")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
