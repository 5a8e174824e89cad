"""Workload definitions for the relrbf benchmark.

Each workload is a `synthetic-blobs` graph fed to the `relrbf` CLI as a user
would run it: one experiment config, a fixed sequence of subcommands, and an
`--out` directory per subcommand.  The benchmark seed sets both the blob draw
and the training seed, so the same seed gives the same inputs.

Prototype settings follow the experimental protocol: c_init=10, c_max=45,
max_epochs=400, monte_carlo=10.
"""

from __future__ import annotations

from dataclasses import dataclass

PROTOCOL = {"c_init": 10, "c_max": 45, "max_epochs": 400}
MONTE_CARLO = 10
DUALITY_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    dim: int
    classes: int
    power: float
    workers: int
    commands: tuple
    embeddable: bool
    why: str

    def config(self, seed: int, n: int | None = None, monte_carlo: int = MONTE_CARLO,
               max_epochs: int | None = None) -> dict:
        """Experiment config for this workload; `n`, `monte_carlo` and
        `max_epochs` shrink it for the untimed warm-up pass."""
        train = {**PROTOCOL, "seed": seed}
        if max_epochs is not None:
            train["max_epochs"] = max_epochs
        return {
            "dataset": {
                "kind": "synthetic-blobs",
                "power": self.power,
                "blobs": {
                    "n": self.n if n is None else n,
                    "dim": self.dim,
                    "classes": self.classes,
                    "sep": 3.0,
                    "seed": seed,
                },
            },
            "train": train,
            "monte_carlo": monte_carlo,
            "workers": self.workers,
            "duality": {"tol": DUALITY_TOL},
        }

    @property
    def r_bytes(self) -> int:
        return self.n * self.n * 8

    @property
    def trains(self) -> bool:
        return "train" in self.commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wdbc569",
            n=569, dim=30, classes=2, power=1.0, workers=1,
            commands=("ingest", "duality", "train"),
            embeddable=True,
            why=(
                "Paper-scale realizable graph (R 2.6 MB, near the 2 MiB per-core L2); one "
                "process; per-epoch Python in run_training is about half of train"
            ),
        ),
        Workload(
            name="nonreal2000_pool",
            n=2000, dim=5, classes=3, power=1.5, workers=2,
            commands=("ingest", "train"),
            embeddable=False,
            why=(
                "Non-realizable graph (power 1.5, R 32 MB: past L2, inside L3) trained "
                "by a 2-process pool; V @ R dominates; negative distances occur"
            ),
        ),
        Workload(
            name="diag1000",
            n=1000, dim=30, classes=2, power=1.0, workers=1,
            commands=("ingest", "diagnose", "transform"),
            embeddable=True,
            why=(
                "No training: the cubic validate triangle test, VAT/iVAT Floyd-Warshall "
                "and cMDS dominate, so train-side changes should not move it"
            ),
        ),
    )
}

# argv tail for each subcommand, after `--config CFG`; `--out DIR` is appended.
COMMAND_ARGS = {
    "ingest": ["ingest"],
    "duality": ["duality"],
    "train": ["train"],
    "diagnose": ["diagnose"],
    "transform": ["transform", "--method", "cmds"],
}

