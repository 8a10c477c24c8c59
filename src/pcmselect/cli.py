"""Command-line interface.

Subcommands
-----------
simulate    Draw samples from a benchmark setting or a model file into CSV.
check       Evaluate graph identification criteria on an edge-list file.
estimate    Run one estimator on a CSV dataset.
tune        Cross-validate parameters for one method.
experiment  Run a Monte Carlo experiment from a JSON config.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as pio
from .data import Dataset, RolePartition
from .errors import (
    ConfigInvalid,
    ConstantColumn,
    DataFormatError,
    EmptyGrid,
    EmptyInput,
    FoldTooSmall,
    OverlappingSets,
    PcmSelectError,
    UnknownVertex,
    check_count,
)
from .experiment import METHODS, ExperimentConfig, check_params, run_monte_carlo
from .graphs import minimal_mediator_sets
from .pcm import PcmParams, pcm_total_effect
from .scm import build_experiment_scm
from .tuning import ParamGrid, cross_validate, cv_table_csv, searched_keys

USAGE_ERROR, DATA_ERROR, NUMERIC_ERROR = 1, 2, 3

_CONFIG_ERRORS = (ConfigInvalid, EmptyGrid, FoldTooSmall, EmptyInput)
_DATA_ERRORS = (DataFormatError, ConstantColumn, UnknownVertex, OverlappingSets, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    def _fail(self, message) -> int:
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR


def _split_names(text: str | None) -> list[str]:
    if not text:
        return []
    return [part.strip() for part in text.split(",") if part.strip()]


def _load_roles(path: str) -> RolePartition:
    return RolePartition.from_dict(pio.load_json(path))


# -- subcommand implementations ---------------------------------------------------


def _cmd_simulate(args) -> int:
    if args.n < 1:
        raise ConfigInvalid(f"--n must be at least 1, got {args.n}")
    check_count("--seed", args.seed, 0)
    seq = np.random.SeedSequence(args.seed)
    build_seed, sample_seed = seq.spawn(2)
    if args.scm.upper() in ("A", "B", "SETTINGA", "SETTINGB"):
        setting = args.scm.upper()[-1]
        scm, spec, tau = build_experiment_scm(setting, np.random.default_rng(build_seed))
        print(f"setting {setting}: true total effect {tau:.6f}")
    else:
        scm, spec = pio.load_scm(args.scm)
    values = scm.sample(args.n, np.random.default_rng(sample_seed), spec)
    pio.write_dataset_csv(args.out, Dataset(values, scm.dag.vertices))
    print(f"wrote {args.n} rows x {len(scm.dag.vertices)} columns to {args.out}")
    return 0


def _cmd_check(args) -> int:
    dag = pio.load_graph(args.graph)
    if args.backdoor is not None:
        ok = dag.satisfies_back_door(args.x, args.y, _split_names(args.backdoor))
        print(f"back-door: {'satisfied' if ok else 'not satisfied'}")
    elif args.frontdoor_like is not None:
        ok = dag.satisfies_front_door_like(
            args.x, args.y,
            _split_names(args.frontdoor_like),
            _split_names(args.z1),
            _split_names(args.z2),
        )
        print(f"front-door-like: {'satisfied' if ok else 'not satisfied'}")
    elif args.minimal_mediators:
        sets = minimal_mediator_sets(dag, args.x, args.y, _split_names(args.candidates))
        if not sets:
            print("minimal mediator sets: none")
        else:
            for s in sets:
                print("minimal mediator set: {" + ", ".join(sorted(s)) + "}")
    else:
        raise ConfigInvalid(
            "choose one of --backdoor, --frontdoor-like, --minimal-mediators"
        )
    return 0


def _load_grid(path: str | None, method: str) -> ParamGrid:
    """The grid in the JSON file at ``path``, or the default grid; a key that the
    search of ``method`` does not read is an error."""
    if not path:
        return ParamGrid()
    payload = pio.load_json(path)
    grid = ParamGrid.from_dict(payload)
    read = {"folds", "fold_seed", *searched_keys(method)}
    if "zeta_xi" in read:  # the pairs may come as lists of zeta1 and xi1
        read |= {"zeta1", "xi1"}
    unread = sorted(set(payload) - read)
    if unread:
        raise ConfigInvalid(f"{method} does not search the grid key(s) {', '.join(unread)}")
    return grid


def _cmd_estimate(args) -> int:
    if args.grid and not args.cv:
        raise ConfigInvalid("--grid is read only with --cv")
    ds = pio.read_dataset_csv(args.data).standardized()
    roles = _load_roles(args.roles)
    params = pio.load_json(args.params) if args.params else {}
    method = METHODS[args.method]
    if args.cv:
        if not method.cv:
            raise ConfigInvalid(f"{args.method} has no parameters to cross-validate")
        chosen = cross_validate(ds, roles, args.method, _load_grid(args.grid, args.method)).chosen
        print(f"cross-validation selected: {json.dumps(chosen, sort_keys=True)}")
        # the keys that CV does not tune keep their values; check_params rejects a non-object
        params = {**params, **chosen} if isinstance(params, dict) else params
    check_params(args.method, params, roles)
    if args.method != "pcm":
        (estimate,) = method.estimate([ds], roles, params)
        if isinstance(estimate, PcmSelectError):
            raise estimate
        print(f"total effect estimate: {estimate!r}")
        return 0
    fit = pcm_total_effect(ds, roles, PcmParams(**params))
    print(f"total effect estimate: {fit.total_effect!r}")
    print(json.dumps(fit.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_tune(args) -> int:
    ds = pio.read_dataset_csv(args.data).standardized()
    roles = _load_roles(args.roles)
    result = cross_validate(ds, roles, args.method, _load_grid(args.grid, args.method))
    print(f"chosen parameters: {json.dumps(result.chosen, sort_keys=True)}")
    print(f"cv score: {result.score!r}")
    table = cv_table_csv(result)
    if args.out:
        Path(args.out).write_text(table)
        print(f"wrote score table to {args.out}")
    else:
        print(table, end="")
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_dict(pio.load_json(args.config))
    result = run_monte_carlo(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pio.write_summary_csv(out_dir / "summary.csv", result)
    pio.write_estimates_csv(out_dir / "estimates.csv", result)
    print(f"true total effect: {result.true_tau!r}")
    header = f"{'method':<28}{'mean':>10}{'sd':>10}{'bias':>10}{'sign':>8}{'fail':>6}"
    print(header)
    for row in result.summaries:
        print(
            f"{row.method:<28}{row.mean:>10.3f}{row.sd:>10.3f}"
            f"{row.bias:>10.3f}{row.sign:>8.3f}{row.failures:>6d}"
        )
    print(f"wrote {out_dir / 'summary.csv'} and {out_dir / 'estimates.csv'}")
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pcmselect", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample data from a model")
    p.add_argument("--scm", required=True,
                   help="benchmark setting (A or B) or a model JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check", help="evaluate graph criteria")
    p.add_argument("--graph", required=True, help="edge-list file (tail -> head)")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--backdoor", help="comma-separated adjustment set")
    p.add_argument("--frontdoor-like", dest="frontdoor_like",
                   help="comma-separated mediator set")
    p.add_argument("--z1", help="first conditioning set (with --frontdoor-like)")
    p.add_argument("--z2", help="second conditioning set (with --frontdoor-like)")
    p.add_argument("--minimal-mediators", action="store_true")
    p.add_argument("--candidates", help="candidate conditioning pool for the search")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("estimate", help="estimate a total effect from CSV data")
    p.add_argument("--data", required=True)
    p.add_argument("--roles", required=True, help="roles JSON file")
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--params", help="parameter JSON file")
    p.add_argument("--cv", action="store_true", help="select parameters by CV")
    p.add_argument("--grid", help="grid JSON file (with --cv)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("tune", help="cross-validate parameters")
    p.add_argument("--data", required=True)
    p.add_argument("--roles", required=True)
    p.add_argument("--method", required=True,
                   choices=[name for name, m in METHODS.items() if m.cv])
    p.add_argument("--grid", help="grid JSON file")
    p.add_argument("--out", help="write the score table CSV here")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p.add_argument("--config", required=True, help="experiment JSON config")
    p.add_argument("--out-dir", default=".", help="directory for the CSV outputs")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (PcmSelectError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
