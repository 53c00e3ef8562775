"""Command-line interface: build lattices, verify nullifiers and identities,
run measurement programs, and export homodyne sample sets.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .graphstate import GraphState, GraphStateError
from .identities import run_cases, run_suite
from .lattice import (LatticeConfig, MacronodeLattice, _lattice_state,
                      edge_summary, ideal_graph, to_dot)
from .mbqc import run_program
from .nullifiers import (empirical_variances, exact_nullifiers,
                         lattice_factors, lattice_variances,
                         nullifier_variances, quadrature_nullifiers,
                         sample_marginal, vacuum_variances,
                         witness_from_variances)
from .oracle import DEFAULT_L, DEFAULT_P2, GridError, check_points


class InputError(ValueError):
    """A usage error: an unreadable input file or flags that cannot go
    together; main prints it and exits 2."""


def _read_json(path, what: str):
    """The parsed JSON file; one that is not UTF-8, not JSON, too deep or
    holding an over-long integer raises an InputError naming the file."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:     # decode errors included
        raise InputError(f"{what} {path} is not readable JSON: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative number as a value.

    argparse takes a word that starts with "-" for an option unless it looks
    like a negative number to its own pattern, which knows only digits and a
    point; so "--chi -inf" failed on the argument count instead of naming
    the flag and the value.  Subcommand parsers are made of the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$",
            re.IGNORECASE)


def _lattice_arg(text: str):
    try:
        n, m = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected N,M") from exc
    return n, m


def _grid_arg(text: str):
    try:
        half, pts = text.split(",")
        half, pts = float(half), int(pts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected L,P") from exc
    if not 0 < half < float("inf"):
        raise argparse.ArgumentTypeError(
            f"half extent L must be finite and > 0, got {half}")
    try:
        check_points(pts)
    except GridError as exc:
        raise argparse.ArgumentTypeError(f"points P: {exc}") from exc
    return half, pts


def _number_arg(rule: str, cast, ok):
    """The argparse type of a number flag: the text read by cast and kept
    by ok; any other text is refused as "{rule}, got {text!r}"."""
    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
    return parse


_seed_arg = _number_arg("seed must be an integer >= 0", int,
                        lambda v: v >= 0)
_shots_arg = _number_arg("shots must be an integer >= 1", int,
                         lambda v: v >= 1)
_finite_arg = _number_arg("expected a finite number", float, np.isfinite)
_threshold_factor_arg = _number_arg(
    "threshold factor must be finite and in (0, 1]", float,
    lambda v: 0 < v <= 1)


def _echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def cmd_build_bsl(args) -> int:
    config = LatticeConfig(args.lattice[0], args.lattice[1], args.squeezing)
    v = ideal_graph(config)
    state, lattice = _lattice_state(v, config.r), MacronodeLattice(config)
    summary = edge_summary(state, config)
    out = Path(args.out)
    payload = {
        "config": _echo(args),
        "graph": state.to_dict(),
        "ideal_graph": v.tolist(),
        "lattice": {f"{t},{d}": mode for (t, d), mode in lattice.coords.items()},
        "summary": summary,
    }
    out.with_suffix(".json").write_text(json.dumps(payload, indent=1))
    out.with_suffix(".dot").write_text(to_dot(state, config))
    print(f"{config.n_modes}-mode lattice written to {out.with_suffix('.json')} "
          f"and {out.with_suffix('.dot')}")
    print(f"self-loop i*{summary['selfloop']:.6f} "
          f"(deviation {summary['selfloop_deviation']:.2e})")
    print(f"bulk edges: {summary['bulk_edges']} at magnitude "
          f"{summary['bulk_magnitude']:.6f} "
          f"(relative spread {summary['bulk_relative_spread']:.2e})")
    print(f"magnitude classes: {summary['magnitude_classes']}")
    print(f"non-nearest-neighbor edges: {summary['nonlocal_edges']}")
    return 0


def cmd_verify_nullifiers(args) -> int:
    if args.graph is not None:
        lattice_only = [flag for flag, value in (
            ("--lattice", args.lattice), ("--squeezing", args.squeezing_list),
            ("--shots", args.shots), ("--seed", args.seed),
            ("--threshold-factor", args.threshold_factor),
            ("--report", args.report))
            if value is not None]
        if lattice_only:
            raise InputError(f"{lattice_only[0]} cannot be used with --graph")
        state = GraphState.from_dict(_read_json(args.graph, "graph"))
        nulls = exact_nullifiers(state)
        variances = nullifier_variances(state, nulls)
        ok = bool((np.abs(variances) <= 1e-10).all())
        print(f"exact nullifier variances: max {np.abs(variances).max():.3e} "
              f"-> {'pass' if ok else 'FAIL'}")
        return 0 if ok else 1
    if args.seed is not None and args.shots is None:
        raise InputError("--seed cannot be used without --shots")
    seed = 7 if args.seed is None else args.seed
    factor = 0.5 if args.threshold_factor is None else args.threshold_factor
    configs = [LatticeConfig(*(args.lattice or (2, 2)), r)
               for r in args.squeezing_list or [1.0]]
    if args.report and len(configs) > 1:
        raise InputError("--report holds one witness report; give one "
                         "--squeezing with it")
    v = ideal_graph(configs[0])
    nulls = quadrature_nullifiers(v)
    # the vacuum baselines depend on V alone, so every squeezing shares them
    baselines = vacuum_variances(nulls)
    overall = True
    for config in configs:
        variances = lattice_variances(baselines, config.r)
        report = witness_from_variances(variances, baselines, factor)
        overall &= report.passed
        # printed after the draws, so a refused shot count prints nothing
        lines = [f"r = {config.r}: analytic witness "
                 f"{'pass' if report.passed else 'FAIL'} "
                 f"(max variance {variances.max():.6f})"]
        if args.shots:
            f_q, f_p = lattice_factors(v, config.r)
            emp = empirical_variances(sample_marginal(f_q, args.shots, seed),
                                      sample_marginal(f_p, args.shots, seed + 1),
                                      nulls)
            emp_report = witness_from_variances(emp, baselines, factor,
                                                args.shots)
            rel = np.abs(emp - variances) / variances
            lines.append(f"        sampled witness "
                         f"{'pass' if emp_report.passed else 'FAIL'} "
                         f"({args.shots} shots, worst relative error "
                         f"{rel.max():.3%})")
            overall &= emp_report.passed
        print("\n".join(lines))
        if args.report:
            Path(args.report).write_text(report.to_json())
    return 0 if overall else 1


def cmd_run_program(args) -> int:
    program = _read_json(args.program, "program")
    result = run_program(program, args.seed)
    payload = {
        "config": {"program": args.program, "seed": args.seed},
        "record": result.record.to_dict(),
        "final_state": result.state.to_dict(),
        "outcome_jacobian": result.outcome_jacobian.T.tolist(),
        "mode_index": result.mode_index,
    }
    text = json.dumps(payload, indent=1)
    if args.out:
        Path(args.out).write_text(text)
        print(f"record written to {args.out}")
    else:
        print(text)
    return 0


#: parameters of the --chi case when their flags are not given
CHI_DEFAULTS = {"sigma": 0.3, "r": 4.0, "outcomes": [0.1, -0.2, 0.4]}


def cmd_verify_identities(args) -> int:
    half, pts = args.grid
    chi_given = {k: getattr(args, k) for k in CHI_DEFAULTS
                 if getattr(args, k) is not None}
    if chi_given and args.chi is None:
        raise InputError(f"--{next(iter(chi_given))} cannot be used "
                         "without --chi")
    if args.seed is not None and (args.chi is not None
                                  or args.cases is not None):
        raise InputError("--seed cannot be used with --chi or --cases")
    if args.suite is not None and (args.chi is not None
                                   or args.cases is not None):
        raise InputError(f"suite {args.suite} cannot be used with --chi or "
                         "--cases")
    if args.cases is not None:
        cases = _read_json(args.cases, "cases file")
        if not isinstance(cases, list) or not all(isinstance(c, dict) for c in cases):
            raise InputError("--cases must hold a JSON list of case objects")
        reports = run_cases(cases, pts, half)
    elif args.chi is not None:
        reports = run_cases([{"identity": "L", "chi": args.chi,
                              **CHI_DEFAULTS, **chi_given}], pts, half)
    else:
        reports = list(run_suite(args.suite or "all", pts, half,
                                 7 if args.seed is None else args.seed))
    ok = True
    for rep in reports:
        if "error" in rep:
            print(f"{rep['identity']}: error: {rep['error']}")
            ok = False
            continue
        print(f"{rep['identity']}: fidelity {rep['fidelity']:.8f} "
              f"{'pass' if rep['pass'] else 'FAIL'} "
              f"params {json.dumps(rep['params'])}")
        ok &= rep["pass"]
    if args.report:
        Path(args.report).write_text(json.dumps(reports, indent=1, default=float))
    return 0 if ok else 1


def cmd_sample_homodyne(args) -> int:
    config = LatticeConfig(*args.lattice, args.squeezing)
    f_q, f_p = lattice_factors(ideal_graph(config), config.r,
                               args.phase_delayed)
    sample_marginal(f_q if args.setting == "q" else f_p, args.shots,
                    args.seed, args.out)
    print(f"{args.shots} shots of the {args.setting} setting written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bslsim",
        description="Simulate and verify bilayer-square-lattice cluster states")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-bsl", help="build the lattice and export graphs")
    p.add_argument("--lattice", type=_lattice_arg, default=(3, 3), metavar="N,M")
    p.add_argument("-r", "--squeezing", type=float, default=1.0)
    p.add_argument("--out", default="bsl", help="output path prefix")
    p.set_defaults(func=cmd_build_bsl)

    p = sub.add_parser("verify-nullifiers",
                       help="nullifier variances and the entanglement witness")
    p.add_argument("--lattice", type=_lattice_arg, metavar="N,M",
                   help="lattice size (default 2,2)")
    p.add_argument("--squeezing", dest="squeezing_list", type=float,
                   action="append", default=None, metavar="R")
    p.add_argument("--graph", help="verify a stored graph JSON instead")
    p.add_argument("--shots", type=_shots_arg,
                   help="also run the sampled two-setting protocol")
    p.add_argument("--seed", type=_seed_arg,
                   help="sampling seed, with --shots (default 7)")
    p.add_argument("--threshold-factor", type=_threshold_factor_arg,
                   help="witness threshold per vacuum variance (default 0.5)")
    p.add_argument("--report", help="write the witness report JSON here")
    p.set_defaults(func=cmd_verify_nullifiers)

    p = sub.add_parser("run-program", help="execute a measurement program")
    p.add_argument("program", help="program JSON path")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", help="write the record JSON here")
    p.set_defaults(func=cmd_run_program)

    p = sub.add_parser("verify-identities",
                       help="grid verification of the teleportation identities")
    p.add_argument("suite", choices=("E", "M", "L", "commutation", "all"),
                   nargs="?", help="suite to run (default all)")
    p.add_argument("--grid", type=_grid_arg, default=(DEFAULT_L, DEFAULT_P2),
                   metavar="L,P")
    p.add_argument("--seed", type=_seed_arg, help="suite seed (default 7)")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--chi", type=_finite_arg,
                     help="run a single cubic-gate case")
    one.add_argument("--cases", help="JSON file with a list of cases to run")
    p.add_argument("--sigma", type=_finite_arg,
                   help="--chi case only (default 0.3)")
    p.add_argument("--r", type=_finite_arg, help="--chi case only (default 4.0)")
    p.add_argument("--outcomes", type=_finite_arg, nargs=3,
                   help="--chi case only (default 0.1 -0.2 0.4)")
    p.add_argument("--report", help="write the batch report JSON here")
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("sample-homodyne", help="export homodyne sample CSVs")
    p.add_argument("--lattice", type=_lattice_arg, default=(2, 2), metavar="N,M")
    p.add_argument("-r", "--squeezing", type=float, default=1.0)
    p.add_argument("--setting", choices=("q", "p"), required=True)
    p.add_argument("--shots", type=_shots_arg, default=10000)
    p.add_argument("--seed", type=_seed_arg, default=7)
    p.add_argument("--out", required=True)
    p.add_argument("--phase-delayed", action="store_true",
                   help="sample the quarter-rotated state instead")
    p.set_defaults(func=cmd_sample_homodyne)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphStateError, GridError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
