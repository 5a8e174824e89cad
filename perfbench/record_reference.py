"""Record the reference run fingerprints that `session.py` checks.

    python3 perfbench/record_reference.py --seeds 0-15

For every training workload and seed it runs `relrbf train` once, with one
BLAS thread as the benchmark does, and stores each Monte Carlo run's
(epochs, stop_reason, n_prototypes, test accuracy) in reference.json.  Re-run
it only when a change is meant to alter training results; the fingerprints
of seeds not listed are checked for repeatability within a run only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import child_env  # noqa: E402

# the BLAS thread count is read when numpy is first imported
os.environ.update(child_env())

import relrbf.cli as cli  # noqa: E402
from session import REFERENCE, environment, fingerprints  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def dump(ref: dict) -> str:
    """reference.json text with one line per workload and seed."""
    tables = ",\n".join(
        f"  {json.dumps(w)}: {{\n"
        + ",\n".join(f"   {json.dumps(seed)}: {json.dumps(fps)}" for seed, fps in table.items())
        + "\n  }"
        for w, table in ref["fingerprints"].items()
    )
    return (f'{{\n "environment": {json.dumps(ref["environment"])},\n'
            f' "fingerprints": {{\n{tables}\n }}\n}}\n')


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-15"))
    args = ap.parse_args(argv)
    ref = {"environment": environment(), "fingerprints": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for w in WORKLOADS.values():
            if not w.trains:
                continue
            table = ref["fingerprints"][w.name] = {}
            for seed in args.seeds:
                cfg = Path(tmp) / "config.json"
                cfg.write_text(json.dumps(w.config(seed)))
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["train", "--config", str(cfg), "--out", tmp])
                if rc != 0:
                    raise SystemExit(f"{w.name} seed {seed}: train exited {rc}")
                table[str(seed)] = fingerprints(json.loads((Path(tmp) / "report.json").read_text()))
                print(w.name, seed, flush=True)
    REFERENCE.write_text(dump(ref))
    return 0


if __name__ == "__main__":
    sys.exit(main())
