"""relrbf benchmark: run one workload of the `relrbf` CLI and print its metrics.

    python3 perfbench/run.py --workload wdbc569 --seed 1 --seconds 20 --trace 0

Run from the repository root.  With `--trace 0` it prints the end-to-end
metrics of BENCHMARK.json, with `--trace 1` the per-layer ones; the last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  Exit code 0 means the run completed (check `correct`);
anything else means the benchmark itself could not run.

Every process started here gets one BLAS thread, so that pool workers times
BLAS threads stays within the core count and results repeat bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = "1"
# Set-up probes run half before and half after the session, so that their
# median spans the run rather than one moment of a host whose CPU speed
# drifts by tens of percent over tens of seconds.
SETUP_PROBES = 6
DEADLINE_S = 170.0
# The untimed warm-up pass: same shape as the workload, a small graph.
WARMUP = {"n": 120, "monte_carlo": 2, "max_epochs": 20}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv: list, env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; past the deadline kill the
    group (pool workers included) and wait for the child."""
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def setup_times(config: Path, env: dict, deadline: float, count: int) -> list:
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = run_child([sys.executable, str(HERE / "probe.py"), str(config)], env, deadline)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "relrbf" / "cli.py").is_file():
        print(f"error: no relrbf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    w = WORKLOADS[args.workload]
    work = ROOT / ".bench_out" / w.name
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / f"result-{args.seed}-{args.trace}.json"
    result_path.unlink(missing_ok=True)
    env = child_env()

    config = work / "config.json"
    config.write_text(json.dumps(w.config(args.seed)))
    (work / "warmup.json").write_text(json.dumps(w.config(args.seed, **WARMUP)))
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setup = setup_times(config, env, deadline, probes)
        session = run_child(
            [sys.executable, str(HERE / "session.py"), "--workload", w.name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", str(work), "--result", str(result_path)],
            env, deadline,
        )
        if session.returncode != 0:
            raise RuntimeError(f"session exited {session.returncode}\n{session.stderr}")
        setup += setup_times(config, env, deadline, probes)
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())

    values = dict(res.get("layers", {}))
    if not args.trace:
        values.update(setup_s=statistics.median(setup), pass_s=res["pass_s"],
                      peak_rss_mb=res["peak_rss_mb"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    env_rec = res["environment"]
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: n={w.n} dim={w.dim} "
          f"classes={w.classes} power={w.power} workers={w.workers} "
          f"R={w.r_bytes / 2**20:.1f} MiB; {res['passes']} untraced and "
          f"{res['traced_passes']} traced passes")
    print("environment " + " ".join(f"{k}={v}" for k, v in env_rec.items()))
    if not args.trace:
        print(f"setup_s samples: {len(setup)} min {min(setup):.4f} max {max(setup):.4f}")
        for cmd, t in res["command_s"].items():
            print(f"{cmd}_s {t['median']:.4f} s (median of {t['samples']}, "
                  f"min {t['min']:.4f}, max {t['max']:.4f})")
        for key, unit in (("train_epochs_per_s", "1/s"), ("test_accuracy", "share")):
            if key in res:
                print(f"{key} {res[key]:.6g} {unit}")
    elif w.trains:
        acc = res["run_batch_accounting"]
        parts = sorted(acc["self_s"].items(), key=lambda kv: -kv[1])
        print(f"first traced cli.run_batch: {acc['total_s']:.4f} s; self times inside it sum to "
              f"{sum(acc['self_s'].values()):.4f} s"
              + (" (pool workers overlap)" if w.workers > 1 else "") + ": "
              + ", ".join(f"{k} {v:.4f}" for k, v in parts))
    for m in wanted:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    failed = len(res["failures"])
    print(f"error_rate {failed / res['attempted']:.6g} ({failed}/{res['attempted']} operations)")
    for f in res["failures"][:20]:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
