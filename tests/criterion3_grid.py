"""Criterion 3's body at other seeds.

Runs the body of ``test_acceptance.test_criterion_03_overfit_oracle``
unchanged, except for the (model seed, data seed) pair, and prints the mean
loss of its 100th, 150th and 200th epoch and whether the body passed (final
loss below 0.01, subset accuracy at least 0.95). The model seed initialises
``ProteinEncoder``; the data seed is ``FinetuneConfig.seed`` (shuffle order).
The test's own pair is (1, 2).

    PYTHONPATH=src:tests python tests/criterion3_grid.py 1,2 3,2 1,4
    PYTHONPATH=src:tests python tests/criterion3_grid.py --cube power --warmup 1 1,2

``--cube power`` trains with GELU's cube taken by ``np.power`` (the op in
``oracles.gelu_power``) instead of ``autodiff.gelu``'s two multiplies;
``--warmup N`` warms the learning rate up over N optimizer steps (1: no
warmup): ``training.WARMUP_SEQUENCES`` is set to 8 N, the body's batch of 8
sequences without accumulation. The file name keeps pytest from collecting it.
"""

import argparse
import sys

import numpy as np

import test_acceptance
from oracles import gelu_power
from protgo import autodiff as ad
from protgo import training
from protgo.model import ProteinEncoder

EPOCHS = (100, 150, 200)
SEQUENCES_A_STEP = 8  # the body's batch_size x grad_accumulation


def run_pair(model_seed: int, data_seed: int) -> tuple:
    """(mean loss of each epoch in EPOCHS, passed) of criterion 3's body."""
    records = []

    def encoder(cfg, seed):
        return ProteinEncoder(cfg, seed=model_seed)

    def finetune_config(**fields):
        return training.FinetuneConfig(**{**fields, "seed": data_seed})

    def train_loop(*args, **kwargs):
        ckpt, recs = training.train_loop(*args, **kwargs)
        records.extend(recs)
        return ckpt, recs

    passed = []

    def gate(number, description, budget_s, body):
        try:
            body()
        except AssertionError:
            passed.append(False)
        else:
            passed.append(True)

    patched = {"ProteinEncoder": encoder, "FinetuneConfig": finetune_config,
               "train_loop": train_loop, "_gate": gate}
    saved = {name: getattr(test_acceptance, name) for name in patched}
    for name, value in patched.items():
        setattr(test_acceptance, name, value)
    try:
        test_acceptance.test_criterion_03_overfit_oracle()
    finally:
        for name, value in saved.items():
            setattr(test_acceptance, name, value)
    means = tuple(float(np.mean([r.loss for r in records if r.epoch == e - 1])) for e in EPOCHS)
    return means, passed[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pairs", nargs="+", help="model_seed,data_seed")
    parser.add_argument("--cube", choices=("multiply", "power"), default="multiply")
    parser.add_argument("--warmup", type=int, default=training.WARMUP_SEQUENCES // SEQUENCES_A_STEP)
    args = parser.parse_args(argv)
    if args.cube == "power":
        ad.gelu = gelu_power
    training.WARMUP_SEQUENCES = SEQUENCES_A_STEP * args.warmup
    print(f"cube={args.cube} warmup={args.warmup}")
    print("model_seed data_seed " + " ".join(f"epoch{e}" for e in EPOCHS) + " passed")
    wins = 0
    for pair in args.pairs:
        model_seed, data_seed = (int(s) for s in pair.split(","))
        means, passed = run_pair(model_seed, data_seed)
        wins += passed
        print(f"{model_seed} {data_seed} " + " ".join(f"{m:.6g}" for m in means) + f" {passed}", flush=True)
    print(f"passed {wins} of {len(args.pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
