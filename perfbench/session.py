"""One benchmark session: a fresh process that runs a workload's relrbf CLI
commands in a loop, checks their outputs and writes a result file.

Started by `run.py`, which writes `config.json` (the workload's experiment
config) and `warmup.json` into the `--work` directory first.

The loop is closed: each command starts when the previous one has returned.
An untimed warm-up pass on a small graph of the same shape loads lazily
imported code and makes the first BLAS/LAPACK calls first.  With `--trace 1`
untraced and traced passes alternate; layer metrics come from the traced
passes and the tracing overhead is their wall-time difference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import relrbf.cli as cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer, self_times  # noqa: E402
from workloads import COMMAND_ARGS, DUALITY_TOL, WORKLOADS  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REPORTS = {"train": "report.json", "duality": "duality.json"}


def digest(directory: Path) -> dict:
    """sha256 and size of every file the command wrote."""
    out = {}
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            h = hashlib.sha256()
            with open(p, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[str(p.relative_to(directory))] = [h.hexdigest(), p.stat().st_size]
    return out


def run_command(command: str, config_path: Path, out: Path, tracer=None) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    argv = COMMAND_ARGS[command] + ["--config", str(config_path), "--out", str(out)]
    root = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with root, contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a benchmark error
        rc = "exception: " + traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    return {"command": command, "rc": rc, "wall_s": wall, "stdout": buf.getvalue()}


def read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def run_pass(workload, config_path: Path, out: Path, tracer=None) -> dict:
    start = time.perf_counter()
    cmds = [run_command(c, config_path, out / c, tracer) for c in workload.commands]
    wall = time.perf_counter() - start
    for rec in cmds:
        rec["files"] = digest(out / rec["command"])
        if rec["command"] in REPORTS:
            rec["report"] = read_json(out / rec["command"] / REPORTS[rec["command"]])
    return {"wall_s": wall, "commands": cmds}


def fingerprints(report: dict) -> list:
    return [
        [r["epochs"], r["stop_reason"], r["n_prototypes"], r["accuracy"]["test"]]
        for r in report["runs"]
    ]


class Checker:
    """Counts operations (CLI commands and Monte Carlo runs) and failures."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.first_files: dict = {}
        self.first_fp: list | None = None
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.reference = ref.get("fingerprints", {}).get(workload.name, {}).get(str(seed))

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def check_pass(self, p: dict, label: str, warmup: bool = False) -> None:
        for rec in p["commands"]:
            self.attempted += 1
            name = f"{label}:{rec['command']}"
            if rec["rc"] != 0:
                self.fail(f"{name} exited {rec['rc']}")
                continue
            if warmup:
                continue
            problem = self.command_problem(rec)
            if problem:
                self.fail(f"{name} {problem}")
            elif rec["command"] == "train":
                self.check_runs(rec, label)

    def command_problem(self, rec: dict) -> str | None:
        cmd, files, report = rec["command"], rec["files"], rec.get("report")
        if cmd not in self.first_files:
            self.first_files[cmd] = files
        elif files != self.first_files[cmd]:
            return "outputs differ from the first pass"
        if cmd == "ingest":
            flag = f"embeddable={self.workload.embeddable}"
            if flag not in rec["stdout"]:
                return f"expected {flag}"
        if cmd in REPORTS and report is None:
            return "wrote no readable report"
        if cmd == "duality":
            if report["passed"] is not True or not report["max_deviation"] <= DUALITY_TOL:
                return f"duality did not pass at {DUALITY_TOL}: {report['max_deviation']}"
        if cmd == "train" and not self.workload.embeddable:
            if sum(r["negative_distance_events"] for r in report["runs"]) <= 0:
                return "no negative-distance events on a non-realizable graph"
        return None

    def check_runs(self, rec: dict, label: str) -> None:
        fps = fingerprints(rec["report"])
        if self.first_fp is None:
            self.first_fp = fps
        expected = self.reference if self.reference is not None else self.first_fp
        for i, fp in enumerate(fps):
            self.attempted += 1
            if i >= len(expected) or fp != expected[i]:
                self.fail(f"{label}:run {i} fingerprint {fp} != {expected[i] if i < len(expected) else None}")


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer totals for one traced pass."""
    self_t = self_times(spans)
    total, own, calls = {}, {}, {}
    attrs: dict = {}
    for s in spans:
        name = s["name"]
        total[name] = total.get(name, 0.0) + (s["end"] - s["start"])
        own[name] = own.get(name, 0.0) + self_t[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        for k, v in s["attrs"].items():
            attrs[(name, k)] = attrs.get((name, k), 0) + v

    def t(name):
        return total.get(name, 0.0)

    def a(name, key):
        return attrs.get((name, key), 0)

    runs = sorted(s["end"] - s["start"] for s in spans if s["name"] == "training.train")
    epochs = a("training.train", "epochs")
    glue = sum(own.get(n, 0.0) for n in ("cli.run_batch", "cli.single_run", "training.train"))
    return {
        "prototypes.distances_s": t("prototypes.distances"),
        "prototypes.distances_calls": calls.get("prototypes.distances", 0),
        "prototypes.distances_bytes_computed": a("prototypes.distances", "bytes_computed"),
        "prototypes.distances_flops_computed": a("prototypes.distances", "flops_computed"),
        "engine.run_training_s": t("engine.run_training"),
        "engine.run_training_self_s": own.get("engine.run_training", 0.0),
        "engine.shift_s": t("engine.shift"),
        "engine.epochs": epochs,
        "engine.accepted_ratio": a("training.train", "accepted") / epochs if epochs else 0.0,
        "engine.grow_events": a("training.train", "grow_events"),
        "engine.negative_distance_events": a("training.train", "negative_distance_events"),
        "initialization.relational_kmeans_s": t("initialization.relational_kmeans"),
        "initialization.relational_kmeans_calls": calls.get("initialization.relational_kmeans", 0),
        "training.train_s": statistics.median(runs) if runs else 0.0,
        "training.train_iqr_s": iqr(runs) if len(runs) > 1 else 0.0,
        "training.train_samples": len(runs),
        "training.evaluate_network_s": t("training.evaluate_network"),
        "graph.validate_s": t("graph.validate"),
        "graph.write_adjacency_s": t("graph.write_adjacency"),
        "graph.write_adjacency_bytes": a("graph.write_adjacency", "bytes"),
        "transforms.vat_s": t("transforms.vat"),
        "transforms.ivat_s": t("transforms.ivat"),
        "transforms.minimax_distances_s": t("transforms.minimax_distances"),
        "transforms.cmds_s": t("transforms.cmds"),
        "transforms.write_s": t("transforms.write"),
        "transforms.bytes_written": a("transforms.write", "bytes"),
        "vector_oracle.duality_check_s": t("vector_oracle.duality_check"),
        "vector_oracle.max_deviation": a("vector_oracle.duality_check", "max_deviation"),
        "cli.run_batch_s": t("cli.run_batch"),
        "cli.run_batch_glue_s": glue,
        "cli.write_report_s": t("cli.write_report"),
        "cli.pool_payload_bytes_computed": a("cli.run_batch", "pool_payload_bytes_computed"),
        "datasets.ingest_s": t("datasets.ingest"),
        "trace.spans": len(spans),
    }


def accounting(spans: list[dict], root: str) -> dict:
    """Total duration of the `root` spans and the self time, by span name,
    of everything inside them.  The self times add up to the total when no
    children overlap, that is when no pool ran."""
    self_t = self_times(spans)
    kids: dict = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    todo = [s for s in spans if s["name"] == root]
    out: dict = {"total_s": sum(s["end"] - s["start"] for s in todo), "self_s": {}}
    while todo:
        s = todo.pop()
        out["self_s"][s["name"]] = out["self_s"].get(s["name"], 0.0) + self_t[s["id"]]
        todo.extend(kids.get(s["id"], []))
    return out


def iqr(values: list) -> float:
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def environment() -> dict:
    def cache(level: int) -> str | None:
        for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if (idx / "level").read_text().strip() == str(level) and \
                        (idx / "type").read_text().strip() in ("Unified", "Data"):
                    return (idx / "size").read_text().strip()
            except OSError:
                return None
        return None

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_per_core": cache(2),
        "l3": cache(3),
        "start_method": multiprocessing.get_start_method(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    config, warm_config = args.work / "config.json", args.work / "warmup.json"
    out = args.work / "out"
    checker = Checker(w, args.seed)

    checker.check_pass(run_pass(w, warm_config, out), "warmup", warmup=True)

    passes, traced = [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(passes)
        if trace_this:
            mark = len(tracer.spans)
            with tracer.installed():
                p = run_pass(w, config, out, tracer)
            p["spans"] = tracer.spans[mark:]
            traced.append(p)
        else:
            p = run_pass(w, config, out)
            passes.append(p)
        checker.check_pass(p, f"pass{len(passes) + len(traced)}")
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or traced):
            break

    result = {
        "workload": w.name,
        "seed": args.seed,
        "attempted": checker.attempted,
        "failures": checker.failures,
        "reference_fingerprints": checker.reference is not None,
        "environment": environment(),
        "passes": len(passes),
        "traced_passes": len(traced),
        "command_s": {},
    }
    for c in w.commands:
        times = [next(r["wall_s"] for r in p["commands"] if r["command"] == c) for p in passes]
        result["command_s"][c] = {"median": statistics.median(times), "min": min(times),
                                  "max": max(times), "samples": len(times)}
    result["pass_s"] = statistics.median(p["wall_s"] for p in passes)
    result["files"] = checker.first_files
    report = next((r.get("report") for r in passes[0]["commands"] if r["command"] == "train"), None)
    if report is not None:
        epochs = sum(r["epochs"] for r in report["runs"])
        result["train_epochs_per_s"] = epochs / result["command_s"]["train"]["median"]
        result["test_accuracy"] = report["aggregate"]["accuracy_mean"]["test"]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result["peak_rss_mb"] = own + (w.workers * workers if w.workers > 1 else 0.0)

    if args.trace:
        per_pass = [layer_metrics(p["spans"]) for p in traced]
        for p, m in zip(traced, per_pass):
            m["cli.bytes_written"] = sum(size for r in p["commands"] for _h, size in r["files"].values())
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        for k in layers:
            if not k.endswith("_s") and len({m[k] for m in per_pass}) > 1:
                checker.fail(f"count {k} differs between traced passes")
        layers["trace.worker_spans"] = tracer.worker_spans // len(traced)
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in passes))
        result["layers"] = layers
        result["run_batch_accounting"] = accounting(traced[0]["spans"], "cli.run_batch")
        spans_path = args.work / "trace_spans.json"
        spans_path.write_text(json.dumps([s for p in traced for s in p["spans"]]))
        result["spans_file"] = str(spans_path)

    shutil.rmtree(out, ignore_errors=True)
    args.result.write_text(json.dumps(result, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
