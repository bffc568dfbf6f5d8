"""Command-line batch runner for seeded (gamma, N) sweeps.

Every subcommand maps to one experiment of `experiments.EXPERIMENTS`, whose
row also gives the subcommand's help text; flags (or a JSON config file with
the same keys, flags winning) assemble a RunManifest which fully determines
the output files.  Exit codes: 0 success, 1 cell failures, 2 usage error or
a manifest that RunManifest refuses (bad input or over the desk-scale guardrails).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .ensembles import Normalization
from .experiments import EXPERIMENTS, RunManifest


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, nargs="+", metavar="G",
                   help="gamma grid values")
    p.add_argument("--sizes", type=int, nargs="+", metavar="N",
                   help="matrix sizes")
    p.add_argument("--reals", type=int, help="realizations per cell (default 10)")
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("--norm", choices=[n.value for n in Normalization],
                   help="ensemble normalization convention (default paper-main)")
    p.add_argument("--out", help="output directory (default runs/<experiment>)")
    p.add_argument("--beta", type=float,
                   help="TFD inverse temperature for spread (default 0)")
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
        p = sub.add_parser(name, help=EXPERIMENTS[name].help)
        _add_common(p)
    pv = sub.add_parser("verify", help="re-check hashes and invariants of a finished run")
    pv.add_argument("--out", required=True, help="output directory of the run")
    return parser


def _build_manifest(args) -> RunManifest:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("a config file must hold a JSON object")
        # a config key is a flag's dest; any other key is refused
        unknown = set(cfg) - (set(vars(args)) - {"command", "config"})
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

    def pick(key, default=None):
        v = getattr(args, key)
        return v if v is not None else cfg.get(key, default)

    gamma = pick("gamma")
    sizes = pick("sizes")
    if not (isinstance(gamma, list) and gamma and isinstance(sizes, list) and sizes):
        raise ValueError("need a non-empty --gamma grid and --sizes grid (flags or config lists)")
    return RunManifest(
        experiment=args.command,
        gamma_grid=tuple(gamma),
        N_grid=tuple(sizes),
        realizations=int(pick("reals", 10)),
        seed=int(pick("seed", 0)),
        normalization=str(pick("norm", Normalization.PAPER_MAIN.value)),
        output_dir=str(pick("out", f"runs/{args.command}")),
        beta=float(pick("beta", 0.0)),
        allow_large=bool(pick("force_large", False)),
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
