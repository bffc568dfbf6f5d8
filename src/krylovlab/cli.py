"""Command-line batch runner for seeded (gamma, N) sweeps.

Every subcommand maps to one experiment of `experiments.EXPERIMENTS`, whose
row also gives the subcommand's help text.  The CLI only parses and merges:
flags win over a JSON config file with the same keys, and the values pass
untouched to RunManifest, which owns every default but the output directory,
checks every value and fully determines the output files.  Exit codes: 0
success, 1 cell failures, 2 usage error or a manifest that RunManifest refuses.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .ensembles import Normalization
from .experiments import EXPERIMENTS, RunManifest


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, nargs="+", metavar="G", help="gamma grid values")
    p.add_argument("--sizes", type=int, nargs="+", metavar="N", help="matrix sizes")
    p.add_argument("--reals", type=int,
                   help=f"realizations per cell (RunManifest default {RunManifest.realizations})")
    p.add_argument("--seed", type=int, help=f"base seed (default {RunManifest.seed})")
    p.add_argument("--norm", choices=[n.value for n in Normalization],
                   help=f"ensemble normalization convention (default {RunManifest.normalization})")
    p.add_argument("--out", help="output directory (default runs/<experiment>)")
    p.add_argument("--beta", type=float,
                   help=f"TFD inverse temperature for spread (default {RunManifest.beta:g})")
    p.add_argument("--config", help="JSON file mirroring the flags; flags win")
    p.add_argument("--force-large", action="store_true", default=None,
                   dest="force_large", help="override the desk-scale guardrails")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krylovlab",
        description="Seeded random-matrix sweeps: tridiagonal profiles, level "
                    "statistics, spread complexity, Krylov IPR, and the "
                    "variance-recursion oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        _add_common(sub.add_parser(name, help=EXPERIMENTS[name].help))
    pv = sub.add_parser("verify", help="re-check hashes and invariants of a finished run")
    pv.add_argument("--out", required=True, help="output directory of the run")
    return parser


# flag dest (and config key) -> RunManifest field
MANIFEST_FIELDS = {"gamma": "gamma_grid", "sizes": "N_grid", "reals": "realizations",
                   "seed": "seed", "norm": "normalization", "out": "output_dir", "beta": "beta",
                   "force_large": "allow_large"}


def _build_manifest(args) -> RunManifest:
    """The config's values, overlaid by the flags given, passed to RunManifest untouched."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("a config file must hold a JSON object")
        unknown = set(cfg) - set(MANIFEST_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values = {"out": f"runs/{args.command}", **cfg,
              **{key: v for key in MANIFEST_FIELDS if (v := getattr(args, key)) is not None}}
    return RunManifest(args.command, **{MANIFEST_FIELDS[key]: v for key, v in values.items()})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    if args.command == "verify":
        return experiments.verify(args.out)
    try:
        manifest = _build_manifest(args)
    except (ValueError, TypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return experiments.run(manifest)


if __name__ == "__main__":
    raise SystemExit(main())
