"""Span tracing of relrbf from the benchmark's side.

`Tracer.installed()` replaces public entry points of the relrbf modules with
wrappers that record a span per call, at the name the caller looks up (for
example `relrbf.cli.validate`, not `relrbf.graph.validate`), and restores the
originals on exit.  No file of the program changes.

Spans live in memory: `{"id", "parent", "name", "pid", "start", "end",
"attrs"}`.  Pool workers are forked from the traced process, so they inherit
the wrappers; each worker returns the spans of its run inside the run's
result, and the `cli.run_batch` wrapper moves them into the parent's list
before the CLI sees the results.  This needs the `fork` start method; under
another start method worker spans are missing and `worker_spans` stays 0.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

WORKER_SPANS_KEY = "_perfbench_spans"


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.pid = os.getpid()
        self.worker_spans = 0
        self._seq = 0

    @contextmanager
    def span(self, name: str, **attrs):
        self._seq += 1
        sid = f"{os.getpid()}-{self._seq}"
        rec = {
            "id": sid,
            "parent": self.stack[-1] if self.stack else None,
            "name": name,
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(rec)

    def wrap(self, name: str, fn, after=None):
        """Wrapper recording a span around `fn`; `after(rec, result, args)`
        may add attributes once the call returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, result, args)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch the relrbf entry points for the duration of the block."""
        import relrbf.cli as cli
        import relrbf.engine as engine
        import relrbf.training as training
        import relrbf.transforms as transforms

        def written(rec, _result, args):
            rec["attrs"]["bytes"] = _file_bytes(args[1])

        def vat_written(rec, _result, args):
            rec["attrs"]["bytes"] = _file_bytes(args[1], args[2])

        def trained(rec, result, _args):
            m = result.metrics
            rec["attrs"].update(
                epochs=m.epochs,
                accepted=int(sum(m.accepted)),
                grow_events=int(sum(m.grew)),
                negative_distance_events=int(sum(m.negative_distances)),
            )

        def distances(rec, _result, args):
            model = args[0]
            c, n = model.V.shape
            rec["attrs"].update(bytes_computed=n * n * 8 + 2 * c * n * 8, flops_computed=2 * c * n * n)

        def duality(rec, result, _args):
            rec["attrs"]["max_deviation"] = float(result.max_deviation)

        def batch(rec, result, args):
            R, _y, _cfg, _seed, count, workers = args
            rec["attrs"]["pool_payload_bytes_computed"] = R.values.nbytes * count if workers > 1 else 0
            for run in result:
                spans = run.pop(WORKER_SPANS_KEY, [])
                self.worker_spans += len(spans)
                self.spans.extend(spans)

        def single_run(fn):
            @functools.wraps(fn)
            def wrapper(payload):
                mark = len(self.spans)
                with self.span("cli.single_run"):
                    result = fn(payload)
                if os.getpid() != self.pid:
                    result[WORKER_SPANS_KEY] = self.spans[mark:]
                return result

            return wrapper

        patches = [
            (cli, "ingest", "datasets.ingest", None),
            (cli, "validate", "graph.validate", None),
            (cli, "write_adjacency", "graph.write_adjacency", written),
            (cli, "run_batch", "cli.run_batch", batch),
            (cli, "train", "training.train", trained),
            (cli, "evaluate_network", "training.evaluate_network", None),
            (cli, "write_json", "cli.write_report", written),
            (cli, "duality_check", "vector_oracle.duality_check", duality),
            (cli, "vat", "transforms.vat", None),
            (transforms, "vat", "transforms.vat", None),
            (cli, "ivat", "transforms.ivat", None),
            (transforms, "minimax_distances", "transforms.minimax_distances", None),
            (cli, "cmds", "transforms.cmds", None),
            (cli, "write_vat_csv", "transforms.write", vat_written),
            (cli, "write_pgm", "transforms.write", written),
            (cli, "write_embedding_csv", "transforms.write", written),
            (cli, "write_eigenvalues_csv", "transforms.write", written),
            (training, "relational_kmeans", "initialization.relational_kmeans", None),
            (training, "relational_model_from_partition", "engine.build_model", None),
            (training, "run_training", "engine.run_training", None),
            (engine.RelationalModel, "distances", "prototypes.distances", distances),
            (engine.RelationalModel, "shift", "engine.shift", None),
            (engine.RelationalModel, "grow", "engine.grow", None),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patches]
        originals.append((cli, "_single_run", cli._single_run))
        try:
            for owner, attr, name, after in patches:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))
            cli._single_run = single_run(cli._single_run)
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


def self_times(spans: list[dict]) -> dict:
    """Per-span self time: duration minus the union of its children's
    intervals clipped to it (children may overlap when they ran in pool
    workers)."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
