"""Dataset generation, the three-stage training schedule, evaluation and export.

Stage 1 pretrains the matcher on the source domain with L1. Stage 2 trains
the translator and discriminator (adversarial + perceptual + feature
matching + stereo consistency), alternating one discriminator step per
generator step. Stage 3 adapts the matcher using supervised smooth-L1 on
translated pairs plus photometric reprojection on target pairs, with the
translator frozen.

All three stages run through :func:`_fit`, the one iteration loop, which
writes the stage's loss log. Every step streams its loss into :func:`_descend`
one sample's term (adapt: one view's) at a time, so no tape holds two samples;
the one exception is the discriminator step, one graph because all its calls
share the step's spectral-weight nodes. Every stage draws randomness from
generators seeded by (master_seed, stage tag), so re-running any command
with the same config and seed reproduces logs and checkpoints bit for bit.

Every stage draws its whole plan (each iteration's sample ids, and the
translator's z codes) before its first step, and the steps draw nothing.
So adapt knows up front which source samples its steps read: it translates
only those, each once, holds only those pairs, and frees the translator
before its first step.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import itertools
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint, fileio, geometry, losses, matcher, synth, translation
from .autodiff import AdamState, Tensor, adam_step, backward, collect_grads, zero_grads
from .config import RunConfig
from .errors import ConfigError
from .geometry import VIEWS

# the published translator and discriminator schedule: Adam(0.0, 0.9); the matcher's (0.9, 0.999) are AdamState's
# defaults
_TRANSLATOR_BETAS = (0.0, 0.9)

# rng stream tags
_TAG_DATA, _TAG_PRETRAIN, _TAG_TRANSLATOR, _TAG_ADAPT, _TAG_TRANSLATE = 1, 2, 3, 4, 5
_TAG_MATCHER_INIT, _TAG_TRANSLATOR_INIT, _TAG_DISCRIMINATOR_INIT = 10, 11, 12

SPLITS = ("source_train", "source_val", "target_train", "target_test")


def _fmt(x: float) -> str:
    return repr(float(x))


@contextlib.contextmanager
def _csv_log(path: Path, header: list[str]) -> Iterator:
    """A csv writer on ``path`` that has written ``header``. The file is line-buffered: each row lands at once."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", buffering=1) as f:
        log = csv.writer(f, lineterminator="\n")
        log.writerow(header)
        yield log


def _rng(config: RunConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng([config.master_seed, tag])


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------


def _split_counts(config: RunConfig) -> dict[str, tuple[str, int]]:
    return {
        "source_train": ("source", config.n_source_train),
        "source_val": ("source", config.n_source_val),
        "target_train": ("target", config.n_target_train),
        "target_test": ("target", config.n_target_test),
    }


def gen_data(config: RunConfig) -> Path:
    """Write every split plus the manifest; byte-identical per (config, seed)."""
    data_dir = Path(config.data_dir)
    rng = _rng(config, _TAG_DATA)
    rows = []
    sample_id = 0
    for split, (domain, count) in _split_counts(config).items():
        seeds = rng.integers(0, 2**62, size=count)
        for k in range(count):
            spec = synth.SceneSpec(
                seed=int(seeds[k]),
                num_layers=config.num_layers,
                disparity_range=(config.d_min, config.d_max_scene),
                domain_style=domain,
                image_size=(config.image_height, config.image_width),
                d_max_full=config.d_max_full,
            )
            sample = synth.generate_scene(spec)
            paths = synth.write_sample(sample, data_dir / split, f"sample_{k:05d}")
            rows.append(
                {
                    "sample_id": str(sample_id),
                    "seed": str(spec.seed),
                    "domain": domain,
                    "split": split,
                    **{key: f"{split}/{name}" for key, name in paths.items()},
                }
            )
            sample_id += 1
    manifest = data_dir / "manifest.csv"
    synth.write_manifest(rows, manifest)
    return manifest


class LoadedSplit:
    """One split in memory as its files hold it: per sample, read-only uint8 [3,H,W] images and
    float32 [H,W] disparities (:class:`synth.StoredSample`), and nothing derived from them.

    ``samples[k]`` builds sample k's float64 :class:`synth.StereoSample` afresh on every read, equal bit for
    bit to :func:`synth.read_sample` of its files.
    """

    def __init__(self, stored: list[synth.StoredSample]):
        self.stored = stored
        self.samples = _BuiltSamples(stored)

    def __len__(self) -> int:
        return len(self.stored)


class _BuiltSamples(Sequence):
    """The read-only sequence of a split's float64 samples, each built when it is read."""

    def __init__(self, stored: list[synth.StoredSample]):
        self._stored = stored

    def __len__(self) -> int:
        return len(self._stored)

    def __getitem__(self, k: int) -> synth.StereoSample:
        return self._stored[operator.index(k)].build()


def load_split(config: RunConfig, split: str) -> LoadedSplit:
    if split not in SPLITS:
        raise ConfigError(f"unknown split '{split}', expected one of {SPLITS}")
    data_dir = Path(config.data_dir)
    manifest = data_dir / "manifest.csv"
    if not manifest.is_file():
        raise ConfigError(f"dataset manifest not found at {manifest}; run gen-data first")
    rows = [r for r in synth.read_manifest(manifest) if r["split"] == split]
    if not rows:
        raise ConfigError(f"split '{split}' is empty in {manifest}")
    return LoadedSplit([_checked_sample(config, data_dir, row) for row in rows])


def _checked_sample(config: RunConfig, data_dir: Path, row: dict) -> synth.StoredSample:
    """Read one sample's files: each must be a readable file, every map must be image_height x image_width, every
    disparity positive."""
    try:
        sample = synth.read_stored_sample(data_dir, row)
    except OSError as err:
        problem = "is missing" if isinstance(err, FileNotFoundError) else f"cannot be read ({err.strerror})"
        raise ConfigError(f"dataset file {err.filename} {problem}; run gen-data again") from None
    h, w = config.image_height, config.image_width
    for v in VIEWS:
        disparity = sample.disparities[v]
        for key, shape in ((f"{v}_image", sample.images[v].shape[1:]), (f"{v}_disp", disparity.shape)):
            if shape != (h, w):
                raise ConfigError(f"{data_dir / row[key]} is {shape[0]}x{shape[1]}, but the config asks for {h}x{w}")
        if not np.all(disparity > 0):
            raise ConfigError(f"{data_dir / row[f'{v}_disp']} holds a disparity that is not strictly positive")
    return sample


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _save_params(config: RunConfig, filename: str, params: dict[str, Tensor]) -> Path:
    """Save ``params`` as ``<checkpoint_dir>/<filename>``; returns the path."""
    path = Path(config.checkpoint_dir) / filename
    checkpoint.save_arrays(path, {name: p.data for name, p in params.items()})
    return path


def _load_params(path: Path, params: dict[str, Tensor], context: str, trainable: bool) -> None:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{context} checkpoint not found: no file at {path}")
    arrays = checkpoint.load_arrays(path)
    if set(arrays) != set(params):
        missing = set(params) - set(arrays)
        unexpected = set(arrays) - set(params)
        raise ConfigError(
            f"{context} checkpoint does not match config: missing={sorted(missing)}, "
            f"unexpected={sorted(unexpected)}"
        )
    for name, p in params.items():
        if arrays[name].shape != p.data.shape:
            raise ConfigError(
                f"{context} checkpoint shape mismatch for '{name}': "
                f"{arrays[name].shape} vs {p.data.shape}"
            )
        p.data = arrays[name]
        p.requires_grad = trainable


def _init_matcher(config: RunConfig) -> matcher.MatcherParams:
    rng = _rng(config, _TAG_MATCHER_INIT)
    return matcher.MatcherParams(rng, channels=config.matcher_channels, d_max=config.d_max_full)


def _init_translator(config: RunConfig) -> translation.TranslatorParams:
    return translation.TranslatorParams(
        _rng(config, _TAG_TRANSLATOR_INIT),
        base_channels=config.base_channels,
        n_scales=config.n_scales,
        z_channels=config.z_channels,
        d_max_full=config.d_max_full,
        sca_enabled=config.sca_enabled,
        cloud_scale=config.cloud_scale,
    )


def _init_discriminator(config: RunConfig) -> translation.DiscriminatorParams:
    return translation.DiscriminatorParams(_rng(config, _TAG_DISCRIMINATOR_INIT), base_channels=config.base_channels)


def load_matcher(config: RunConfig, path: Path, trainable: bool = True) -> matcher.MatcherParams:
    mparams = _init_matcher(config)
    _load_params(path, mparams.params, "matcher", trainable)
    return mparams


def load_translator(config: RunConfig, path: Path, trainable: bool = True) -> translation.TranslatorParams:
    tparams = _init_translator(config)
    _load_params(path, tparams.params, "translator", trainable)
    return tparams


def _descend(terms: Iterable[Tensor], params: dict[str, Tensor], state: AdamState) -> None:
    """One Adam step along the summed gradient of ``terms``, each loss backpropagated as soon as it is produced.
    Every step passes one term per sample (or sample and view), bar the discriminator's one graph (shared σ nodes)."""
    zero_grads(params)
    for loss in terms:
        backward(loss)
    adam_step(params, collect_grads(params), state)


def _stream(keys: Iterable, term, factors: tuple[float, ...], values: dict) -> Iterator[Tensor]:
    """``term(key)`` times each of ``factors`` in turn, key by key; each term's value goes to ``values[key]``."""
    for key in keys:
        values[key] = (t := term(key)).detach()
        yield functools.reduce(ad.mulc, factors, t)


def _fit(config: RunConfig, log_name: str, columns: list[str], plans: list, run) -> None:
    """The one training loop: ``run(it, plans[it - 1])`` for it = 1..len(plans), streamed to the loss log.

    Each plan holds what its iteration drew (sample ids, codes), so ``run`` touches no RNG. ``run`` returns the
    iteration's loss tensors, one per entry of ``columns``; each row of ``<output_dir>/<log_name>`` is the
    iteration and those values, flushed as its iteration ends, so a run stopped at iteration k keeps the header
    and k - 1 rows.
    """
    with _csv_log(Path(config.output_dir) / log_name, ["iteration", *columns]) as log:
        log.writerows([it, *(_fmt(t.item()) for t in run(it, plan))] for it, plan in enumerate(plans, start=1))


def _left_disparity(mparams: matcher.MatcherParams):
    """Predictor for :func:`evaluate_samples`: the matcher's left-view disparity, recorded on no tape."""
    frozen = copy.copy(mparams)
    frozen.params = translation.detach_params(mparams.params)
    return lambda s: matcher.predict_disparity(s.images["left"], s.images["right"], frozen)


# ---------------------------------------------------------------------------
# stage 1: source-domain pretraining
# ---------------------------------------------------------------------------


def _pretrain_step(batch: list[synth.StereoSample], mparams: matcher.MatcherParams, state: AdamState) -> Tensor:
    """One L1 step; returns the mean loss. Last sample first, as backward walks one ``mean_n`` graph."""
    n, values = len(batch), {}

    def term(k: int) -> Tensor:
        pred = matcher.predict_disparity(batch[k].images["left"], batch[k].images["right"], mparams)
        return losses.l1_disparity_loss(pred, batch[k].disparities["left"])

    _descend(_stream(reversed(range(n)), term, (1.0 / n,), values), mparams.params, state)
    return ad.mean_n([values[k] for k in range(n)])


def pretrain(config: RunConfig) -> Path:
    """Stage 1: train the matcher on source pairs with L1; returns ckpt path."""
    train = load_split(config, "source_train")
    val = load_split(config, "source_val")
    mparams = _init_matcher(config)
    state = AdamState(mparams.params, config.pretrain_lr)
    rng = _rng(config, _TAG_PRETRAIN)
    plans = [rng.integers(0, len(train), size=config.pretrain_batch) for _ in range(config.pretrain_iters)]
    with _csv_log(Path(config.output_dir) / "pretrain_val.csv", ["iteration", "epe"]) as val_log:

        def run(it: int, idx: np.ndarray) -> tuple[Tensor]:
            loss = _pretrain_step([train.samples[k] for k in idx], mparams, state)
            if it % config.val_interval == 0 or it == config.pretrain_iters:
                val_log.writerow([it, _fmt(evaluate_samples(val, _left_disparity(mparams))[1]["epe"])])
            return (loss,)

        _fit(config, "pretrain_loss.csv", ["l1"], plans, run)
    return _save_params(config, "matcher.ckpt", mparams.params)


# ---------------------------------------------------------------------------
# stage 2: translator + discriminator
# ---------------------------------------------------------------------------


def _generator_step(
    sample: Callable[[int], tuple], n: int, tparams: translation.TranslatorParams,
    dparams: translation.DiscriminatorParams, config: RunConfig, state: AdamState,
) -> tuple[dict[str, Tensor], dict[int, dict[str, Tensor]]]:
    """One step on n samples, ``sample(k)`` giving (source sample, target sample, z), against the discriminator's
    detached kernels normalized with the current u; returns the four logged components and each sample's detached
    fakes by index. The stereo term derives each view's occlusion mask from the disparities. Each sample's
    objective, scaled by 1/n, is backpropagated as soon as it is built, last sample first: the order backward walks
    one batch graph (every loss head into the fakes, then the translate graphs, last sample first), so every
    parameter sums its gradient in that order.
    """
    det = translation.spectral_weights(translation.detach_params(dparams.params), dparams.u)
    parts, fakes_of = {}, {}

    def term(k: int) -> Tensor:
        src, tgt, z = sample(k)
        fakes, feats = translation.translate(src.images, src.disparities, tgt.images, z, tparams)
        fakes_of[k] = {v: fakes[v].detach() for v in VIEWS}
        fake = {v: translation.discriminate(fakes[v], det) for v in VIEWS}
        real_hidden = [h for v in VIEWS for h in translation.discriminate(tgt.images[v], det)[1]]
        sample_parts = {
            "adv_g": losses.adv_loss_generator({v: fake[v][0] for v in VIEWS}),
            "perc": ad.mean_n([losses.perceptual_loss(fakes[v], src.images[v]) for v in VIEWS]),
            "feat": losses.feature_matching_loss([h for v in VIEWS for h in fake[v][1]], real_hidden),
            "stereo": losses.stereo_consistency_loss(feats + [fakes], src.disparities),
        }
        parts[k] = {name: t.detach() for name, t in sample_parts.items()}
        return losses.generator_objective(sample_parts, config)

    _descend(_stream(reversed(range(n)), term, (1.0 / n,), {}), tparams.params, state)
    return {name: ad.mean_n([parts[k][name] for k in range(n)]) for name in parts[0]}, fakes_of


def train_translator(config: RunConfig) -> Path:
    """Stage 2: adversarial translator training; returns the translator's ckpt path."""
    source = load_split(config, "source_train")
    target = load_split(config, "target_train")
    tparams = _init_translator(config)
    dparams = _init_discriminator(config)
    g_state = AdamState(tparams.params, config.translator_lr_g, *_TRANSLATOR_BETAS)
    c_state = AdamState(dparams.params, config.translator_lr_c, *_TRANSLATOR_BETAS)
    rng = _rng(config, _TAG_TRANSLATOR)
    batch = config.translator_batch
    plans = [  # per iteration: source ids, target ids, one z per sample
        [rng.integers(0, len(source), size=batch), rng.integers(0, len(target), size=batch),
         rng.standard_normal((batch, config.z_channels))]
        for _ in range(config.translator_iters)
    ]

    def run(it: int, plan: list[np.ndarray]) -> tuple[Tensor, ...]:
        src_idx, tgt_idx, codes = plan

        def sample(k: int) -> tuple:  # built on each read, so a step holds only the samples it works on
            return source.samples[src_idx[k]], target.samples[tgt_idx[k]], ad.constant(codes[k])

        components, fakes_of = _generator_step(sample, len(codes), tparams, dparams, config, g_state)

        # discriminator step on pre-step fakes; one power iteration per kernel. One graph, not streamed:
        # every discriminate call shares the step's spectral-weight nodes.
        dparams.power_iteration()
        d_weights = translation.spectral_weights(dparams.params, dparams.u)
        logits = lambda images: {v: translation.discriminate(images[v], d_weights)[0] for v in VIEWS}
        terms = []
        for k in range(len(codes)):
            src, tgt, _ = sample(k)
            terms.append(losses.adv_loss_discriminator(logits(fakes_of[k]), logits(src.images), logits(tgt.images)))
        loss_c = ad.mean_n(terms)
        _descend([loss_c], dparams.params, c_state)

        return components["adv_g"], loss_c, components["perc"], components["feat"], components["stereo"]

    columns = ["adv_g", "adv_c", "perc", "feat", "stereo"]
    _fit(config, "translator_loss.csv", columns, plans, run)
    return _save_params(config, "translator.ckpt", tparams.params)


# ---------------------------------------------------------------------------
# stage 3: matcher adaptation
# ---------------------------------------------------------------------------


def _adapt_step(
    batch: list[tuple], mparams: matcher.MatcherParams, config: RunConfig, state: AdamState
) -> tuple[Tensor, Tensor, Tensor]:
    """One step on (translated pair, its ground truth, target pair) triples; returns disp, reproj, loss_e.

    Each view's term is backpropagated, weighted as in :func:`losses.matcher_objective`, as soon as it is
    built, in the order backward walks one graph of the objective: reprojection first, each last sample and
    right view first. So every parameter sums its gradient in the same order as that graph's walk.
    """
    n, values = len(batch), {}

    def term(key: tuple[str, int, str]) -> Tensor:
        name, k, v = key
        fakes, gt, tgt = batch[k]
        pair = fakes if name == "disp" else tgt
        pred = {v: matcher.predict_view(pair["left"], pair["right"], v, mparams)}
        if name == "disp":
            return losses.disparity_loss(pred, gt)
        return losses.reprojection_loss(tgt, pred)

    streams = [
        _stream(itertools.product([name], reversed(range(n)), reversed(VIEWS)), term, (1.0 / n, lam), values)
        for name, lam in (("reproj", config.lambda_reproj), ("disp", config.lambda_disp))
    ]
    _descend(itertools.chain(*streams), mparams.params, state)
    mean = lambda name: ad.mean_n([ad.add_n([values[name, k, v] for v in VIEWS]) for k in range(n)])
    components = {"disp": mean("disp"), "reproj": mean("reproj")}
    return components["disp"], components["reproj"], losses.matcher_objective(components, config)


def _translations(
    source: LoadedSplit,
    target: LoadedSplit,
    tparams: translation.TranslatorParams,
    codes: np.ndarray,
    ids: Iterable[int],
) -> Iterator[tuple[int, synth.StereoSample, dict[str, Tensor]]]:
    """``(k, source sample k, its detached translated pair)`` for each k of ``ids``, by the frozen translator.

    Sample k is translated with its own z, row k of ``codes`` (one draw for the whole source split, so no z
    depends on which ids are asked for), styled by target sample ``k % len(target)``. A generator, so that no
    style or generator feature of one translation outlives it into the next, or into the adapt steps.
    """
    for k in ids:
        src = source.samples[k]
        style = target.samples[k % len(target)]
        fakes, _ = translation.translate(src.images, src.disparities, style.images, ad.constant(codes[k]), tparams)
        yield k, src, {v: fakes[v].detach() for v in VIEWS}


def adapt(config: RunConfig, translator_ckpt: Path, matcher_ckpt: Path) -> Path:
    """Stage 3: adapt the matcher with translated supervision + reprojection."""
    source = load_split(config, "source_train")
    target = load_split(config, "target_train")
    tparams = load_translator(config, translator_ckpt, trainable=False)
    mparams = load_matcher(config, matcher_ckpt, trainable=True)
    state = AdamState(mparams.params, config.adapt_lr)
    rng = _rng(config, _TAG_ADAPT)
    codes = rng.standard_normal((len(source), config.z_channels))  # one z per source sample
    sizes = (len(source), len(target))
    plans = [[rng.integers(0, n, size=config.adapt_batch) for n in sizes] for _ in range(config.adapt_iters)]

    drawn = sorted({int(k) for src_idx, _ in plans for k in src_idx})
    translated = {k: pair for k, _, pair in _translations(source, target, tparams, codes, drawn)}
    del tparams  # frozen, and read by no step

    def run(it: int, plan: list[np.ndarray]) -> tuple[Tensor, ...]:
        batch = [(translated[si], source.samples[si].disparities, target.samples[ti].images) for si, ti in zip(*plan)]
        return _adapt_step(batch, mparams, config, state)

    _fit(config, "adapt_loss.csv", ["disp", "reproj", "loss_e"], plans, run)
    return _save_params(config, "matcher_adapted.ckpt", mparams.params)


# ---------------------------------------------------------------------------
# evaluation and translation export
# ---------------------------------------------------------------------------


METRICS = {"epe": geometry.epe, "d1_all": geometry.d1_all, "bad1": geometry.bad1}


def evaluate_samples(split: LoadedSplit, predict_fn) -> tuple[list[list], dict[str, float]]:
    """Per-sample rows of every :data:`METRICS` column, plus each column's mean.

    ``predict_fn(sample) -> Tensor[H,W]`` supplies the left-view disparity.
    """
    rows, scores = [], []
    for k, s in enumerate(split.samples):
        pred = predict_fn(s)
        scores.append([metric(pred, s.disparities["left"]) for metric in METRICS.values()])
        rows.append([k] + [_fmt(v) for v in scores[-1]])
    return rows, {name: float(np.mean(column)) for name, column in zip(METRICS, zip(*scores))}


def evaluate(config: RunConfig, matcher_ckpt: Path, split: str) -> dict[str, float]:
    """Write per-sample metrics CSV for a split; returns the aggregates."""
    data = load_split(config, split)
    mparams = load_matcher(config, matcher_ckpt, trainable=False)
    rows, means = evaluate_samples(data, _left_disparity(mparams))
    with _csv_log(Path(config.output_dir) / f"evaluate_{split}.csv", ["sample", *METRICS]) as log:
        log.writerows([*rows, ["mean"] + [_fmt(v) for v in means.values()]])
    return means


def image_consistency(images: dict[str, Tensor], disparities: dict[str, np.ndarray]) -> float:
    """Image-level stereo-consistency score (no feature scales)."""
    return losses.stereo_consistency_loss([images], disparities).item()


def translate_export(
    config: RunConfig, translator_ckpt: Path, sample_ids: list[int] | None = None
) -> Path:
    """Translate held-out source scenes; write PPM pairs + consistency CSV."""
    source = load_split(config, "source_val")
    target = load_split(config, "target_test")
    tparams = load_translator(config, translator_ckpt, trainable=False)
    codes = _rng(config, _TAG_TRANSLATE).standard_normal((len(source), config.z_channels))
    if sample_ids is None:
        sample_ids = list(range(len(source)))
    for k, sid in enumerate(sample_ids):
        if not 0 <= sid < len(source):
            raise ConfigError(f"unknown sample id {sid}; source_val has {len(source)} samples")
        if sid in sample_ids[:k]:
            raise ConfigError(f"sample id {sid} is given more than once")
    out_dir = Path(config.output_dir) / "translated"
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for sid, src, fakes in _translations(source, target, tparams, codes, sample_ids):
        for v in VIEWS:
            fileio.write_ppm(fakes[v], out_dir / f"sample_{sid:05d}_{v}.ppm")
        rows.append([sid, _fmt(image_consistency(fakes, src.disparities))])
    csv_path = Path(config.output_dir) / "consistency.csv"
    with _csv_log(csv_path, ["sample", "consistency"]) as log:
        log.writerows(rows)
    return csv_path
