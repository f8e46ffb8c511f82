"""Command-line entry point: one subcommand per experiment recipe.

Exit codes: 0 on success, 2 on parameter errors (bad flags, bad config,
unwritable output, invariant violations), 3 when a recipe's built-in
acceptance thresholds fail.
"""

import argparse
import sys
from pathlib import Path

from .config import resolve_config
from .flow import ConvergenceError, SingularityError
from .graphs import SamplingError
from .harness import RECIPE_DEFAULTS, RECIPES, run_experiment

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_ACCEPTANCE = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rrglab",
        description="Spectral laboratory for random regular graphs: "
                    "sampling, switching dynamics, constrained matrix flow, "
                    "and bulk-statistics verification recipes.")
    sub = parser.add_subparsers(dest="recipe", required=True)
    for name, func in RECIPES.items():
        doc = (func.__doc__ or "").strip().splitlines()[0]
        cmd = sub.add_parser(name, help=doc, description=doc)
        cmd.add_argument("--config", type=Path, default=None,
                         help="flat key=value config file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="base seed for all trial streams")
        cmd.add_argument("--samples", type=int, default=None,
                         help="number of samples / trials / replicas")
        cmd.add_argument("--out", type=Path, default=None,
                         help="output directory for artifacts")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "n_samples": args.samples,
                 "output_dir": args.out}
    try:
        config = resolve_config(
            recipe_defaults=RECIPE_DEFAULTS.get(args.recipe),
            file_path=args.config,
            overrides=overrides)
        return run_experiment(config, args.recipe)
    except (SamplingError, ConvergenceError, SingularityError, OSError,
            ValueError) as exc:
        print(f"rrglab {args.recipe}: error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
