"""Set-up probe: a fresh process that imports relrbf, builds the workload's
graph from its config and makes its first LAPACK call, then exits.  `run.py`
times it from spawn to exit; that is the `setup_s` a CLI user pays on every
invocation before a command does its own work."""

import sys

import numpy as np

import relrbf.cli as cli

data = cli.load_dataset(cli.ExperimentConfig.from_file(sys.argv[1]))
np.linalg.eigvalsh(np.eye(2) + data.R.values[:2, :2])
