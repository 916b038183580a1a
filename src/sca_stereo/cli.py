"""Command-line entry point.

Subcommands: gen-data, pretrain, train-translator, adapt, evaluate,
translate, gradcheck. ``--config`` points at a ``key = value`` file;
``--seed``, ``--no-sca`` and ``--out`` override the loaded values.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import RunConfig, apply_overrides, load_config
from .errors import ConfigError, FormatError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sca-stereo",
        description="Stereo-consistent translation and matcher adaptation pipeline",
        allow_abbrev=False,
    )
    parser.add_argument("--config", type=Path, default=None, help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--no-sca", action="store_true", help="disable the cross-view attention blocks")
    parser.add_argument("--out", type=Path, default=None, help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    # abbreviation is a per-parser setting: a prefix like --sample-id must not pass for --sample-ids
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    add("gen-data", help="write the synthetic two-domain dataset")
    add("pretrain", help="stage 1: train the matcher on the source domain")

    add("train-translator", help="stage 2: train translator and discriminator")

    p = add("adapt", help="stage 3: adapt the matcher to the target domain")
    p.add_argument("--translator-ckpt", type=Path, required=True)
    p.add_argument("--matcher-ckpt", type=Path, required=True)

    p = add("evaluate", help="per-sample EPE / D1-all metrics for a split")
    p.add_argument("--matcher-ckpt", type=Path, required=True)
    p.add_argument("--split", required=True)

    p = add("translate", help="export translated pairs and consistency scores")
    p.add_argument("--translator-ckpt", type=Path, required=True)
    p.add_argument("--sample-ids", type=int, nargs="+", default=None)

    add(
        "gradcheck", help="finite-difference battery of all ops on random output gradients: constant ones hide bad vjps"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a bad config or a malformed file prints one error line and returns 2, as a bad flag does."""
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, FormatError) as err:
        print(f"sca-stereo: error: {err}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    apply_overrides(config, seed=args.seed, no_sca=args.no_sca, out=args.out)

    from . import training

    if args.command == "gen-data":
        manifest = training.gen_data(config)
        print(f"wrote dataset manifest to {manifest}")
        return 0
    if args.command == "pretrain":
        ckpt = training.pretrain(config)
        print(f"wrote matcher checkpoint to {ckpt}")
        return 0
    if args.command == "train-translator":
        ckpt = training.train_translator(config)
        print(f"wrote translator checkpoint to {ckpt}")
        return 0
    if args.command == "adapt":
        ckpt = training.adapt(config, args.translator_ckpt, args.matcher_ckpt)
        print(f"wrote adapted matcher checkpoint to {ckpt}")
        return 0
    if args.command == "evaluate":
        metrics = training.evaluate(config, args.matcher_ckpt, args.split)
        print(" ".join(f"{name}={value!r}" for name, value in metrics.items()))
        return 0
    if args.command == "translate":
        csv_path = training.translate_export(config, args.translator_ckpt, args.sample_ids)
        print(f"wrote consistency scores to {csv_path}")
        return 0
    if args.command == "gradcheck":
        from .gradcheck import run_battery

        rows = run_battery()
        failures = 0
        for row in rows:
            status = "ok" if row["passed"] else "FAIL"
            print(f"{status:4s} {row['op']:32s} seed={row['seed']} max_rel_err={row['max_rel_err']:.3e}")
            failures += 0 if row["passed"] else 1
        ops = len({r["op"] for r in rows})
        print(f"checked {ops} ops x {len(rows) // ops} seeds, {failures} failures")
        return 1 if failures else 0
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
