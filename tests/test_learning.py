"""The stages learn: a pretrained matcher beats a constant, and the translator's stereo term falls.

``tiny_pipeline.json`` pins the bytes of a 4-iteration run, which a change
that stops learning can still reproduce after regeneration. These tests pin
the direction instead, at 32x64 sizes that train in a few seconds.

Margins come from the spread over master seeds, each with its own dataset,
measured on this code (1 BLAS thread, numpy 2.4.6). The seeds the tests run
were fixed before the measurement:

- Pretrain, :func:`_pretrain_config`: ``source_val`` EPE over the EPE of
  ``oracles.constant_predictor`` (the median of ``source_train``) was
  0.213-0.576 over seeds 0-19 (seeds 0-9: 0.319, 0.365, 0.309, 0.213, 0.512,
  0.423, 0.515, 0.404, 0.511, 0.433). The test asks for at most 0.8. With 60
  iterations instead of 150 the ratio was 1.19 on seed 6 and 1.08 on seed 8:
  too few steps to pass on every seed.
- Translator, :func:`_translator_config`: the mean stereo term of the last
  10 iterations over that of the first 10 was 0.562-0.688 over seeds 0-7
  (0.606, 0.674, 0.688, 0.654, 0.641, 0.596, 0.562, 0.662). The test asks for
  at most 0.85.
"""

import csv

import numpy as np
import pytest

from sca_stereo import training
from sca_stereo.config import RunConfig

from oracles import constant_predictor


def _sizes(tmp_path, seed: int) -> dict:
    return dict(
        data_dir=str(tmp_path / "data"), checkpoint_dir=str(tmp_path / "ckpt"), output_dir=str(tmp_path / "out"),
        master_seed=seed, image_height=32, image_width=64, d_max_full=8, d_max_scene=6.0,
    )


def _pretrain_config(tmp_path, seed: int) -> RunConfig:
    return RunConfig(
        **_sizes(tmp_path, seed), matcher_channels=8, n_source_train=24, n_source_val=8, n_target_train=1,
        n_target_test=1, pretrain_batch=2, pretrain_lr=1e-3, pretrain_iters=150, val_interval=150,
    ).validate()


def _translator_config(tmp_path, seed: int) -> RunConfig:
    return RunConfig(
        **_sizes(tmp_path, seed), base_channels=8, z_channels=4, n_source_train=8, n_source_val=1,
        n_target_train=8, n_target_test=1, translator_iters=60, translator_batch=1,
    ).validate()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pretrained_matcher_beats_the_constant_on_source_val(tmp_path, seed):
    config = _pretrain_config(tmp_path, seed)
    training.gen_data(config)
    learned = training.evaluate(config, training.pretrain(config), "source_val")["epe"]
    constant = constant_predictor(training.load_split(config, "source_train"))
    baseline = training.evaluate_samples(training.load_split(config, "source_val"), lambda s: constant)[1]["epe"]
    assert learned <= 0.8 * baseline, (learned, baseline)


def test_translator_lowers_its_stereo_term(tmp_path):
    config = _translator_config(tmp_path, 0)
    training.gen_data(config)
    training.train_translator(config)
    with open(tmp_path / "out" / "translator_loss.csv", newline="") as f:
        stereo = [float(row["stereo"]) for row in csv.DictReader(f)]
    first, last = np.mean(stereo[:10]), np.mean(stereo[-10:])
    assert last <= 0.85 * first, (first, last)
