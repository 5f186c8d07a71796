"""Make the benchmark's fixed victim checkpoint again.

    python3 perfbench/make_victim.py [out]

Trains the `full` variant on the desk data with desk_train_config at seed 0,
as the acceptance suite's desk run does, and writes the checkpoint to
perfbench/victim_full_seed0.json (or `out`). The checkpoint is an input of
desk-attack and large-score, not an expected output: those workloads read it
so that a change to training cannot move them.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import graphsentry.model as M  # noqa: E402
import graphsentry.training as T  # noqa: E402

from workloads import VICTIM, desk_data  # noqa: E402


def desk_train_config(variant: str) -> T.TrainConfig:
    """The acceptance suite's desk_train_config at seed 0."""
    return T.TrainConfig(gamma=0.5, learning_rate=0.001, layers=2, hidden=32,
                         lambda1=1.0, lambda2=1.0, max_epochs=200,
                         early_stop_patience=10, batch_size=32,
                         rng_seed=0, variant=variant)


def main(argv: list[str]) -> int:
    out = argv[0] if argv else os.path.join(HERE, VICTIM)
    data = desk_data()
    params, report = T.train(data["train"], data["validation"],
                             desk_train_config("full"))
    M.save_checkpoint(out, params, meta={
        "made_by": "perfbench/make_victim.py",
        "variant": "full", "rng_seed": 0,
        "best_epoch": report.best_epoch, "stopping_epoch": report.stopping_epoch,
    })
    print(f"wrote {out}: best epoch {report.best_epoch}, "
          f"stopped at {report.stopping_epoch}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
