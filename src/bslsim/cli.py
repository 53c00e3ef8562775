"""Command-line interface: build lattices, verify nullifiers and identities,
run measurement programs, and export homodyne sample sets.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .graphstate import GraphStateError
from .identities import SUITES, run_cases, run_suite
from .lattice import (LatticeConfig, _lattice_state, edge_summary,
                      ideal_graph, to_dot)
from .mbqc import run_program
from .nullifiers import (empirical_variances, lattice_factors,
                         lattice_variances, quadrature_nullifiers,
                         sample_marginal, vacuum_variances,
                         witness_from_variances)
from .oracle import (DEFAULT_L, DEFAULT_POINTS, GridError, check_half_extent,
                     check_points)


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


# exact types: a numpy scalar or other object is left to default=float
_SCALAR = {str, int, float, bool, type(None)}


def _c_json(obj, pad: str) -> str:
    """obj in one C-encoder call, with item separator "," + pad; any
    indent= would run json's pure-Python encoder instead."""
    return json.JSONEncoder(separators=("," + pad, ": ")).encode(obj)


def _to_json(obj, depth: int = 0) -> str:
    """json.dumps(obj, indent=1, default=float), byte for byte, as written
    at nesting depth.  A list or str-keyed dict of scalars, and a list of
    nonempty lists of scalars, take one C-encoder call each.  That is exact
    because an encoded string holds no raw newline: each separator of the C
    text is an item boundary, and each "]" + separator + "[" a row's end."""
    pad = "\n" + " " * (depth + 1)
    if type(obj) is dict and obj and set(map(type, obj)) == {str}:
        if set(map(type, obj.values())) <= _SCALAR:
            return "{" + pad + _c_json(obj, pad)[1:-1] + pad[:-1] + "}"
        items = (f"{encode_basestring_ascii(k)}: {_to_json(v, depth + 1)}"
                 for k, v in obj.items())
        return "{" + pad + ("," + pad).join(items) + pad[:-1] + "}"
    if type(obj) is list and obj:
        kinds = set(map(type, obj))
        if kinds <= _SCALAR:
            return "[" + pad + _c_json(obj, pad)[1:-1] + pad[:-1] + "]"
        if (kinds == {list} and all(obj) and set(
                chain.from_iterable(map(partial(map, type), obj))) <= _SCALAR):
            row = pad + " "
            text = _c_json(obj, row)[2:-2].replace(
                "]," + row + "[", pad + "]," + pad + "[" + row)
            return "[" + pad + "[" + row + text + pad + "]" + pad[:-1] + "]"
    return json.dumps(obj, indent=1, default=float).replace("\n", pad[:-1])


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
    for check, value, label in ((check_half_extent, half, ""),
                                (check_points, pts, "points P: ")):
        try:
            check(value)
        except GridError as exc:
            raise argparse.ArgumentTypeError(label + str(exc)) from exc
    return half, pts


def _checked_arg(rule: str, cast, ok):
    """The argparse type of a checked flag: the text read by cast and kept
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


_seed_arg = _checked_arg("seed must be an integer >= 0", int,
                         lambda v: v >= 0)
_shots_arg = _checked_arg("shots must be an integer >= 1", int,
                          lambda v: v >= 1)
_witness_shots_arg = _checked_arg("shots must be an integer >= 2", int,
                                  lambda v: v >= 2)
_threshold_factor_arg = _checked_arg(
    "threshold factor must be finite and in (0, 1]", float,
    lambda v: 0 < v <= 1)
# "", "." and "/" name no file to write, and with_suffix needs a name
_prefix_arg = _checked_arg("output path must end in a file name", str,
                           lambda v: Path(v).name != "")
# nor does a directory, which the write would refuse only after the work
_out_arg = _checked_arg("output path must name a file, not a directory", str,
                        lambda v: Path(v).name != "" and not Path(v).is_dir())


def cmd_build_bsl(args) -> int:
    config = LatticeConfig(args.lattice[0], args.lattice[1], args.squeezing)
    v = ideal_graph(config)
    state = _lattice_state(v, config.r)
    summary = edge_summary(state, config)
    out = Path(args.out)
    payload = {
        "config": vars(args),
        "graph": state.to_dict(),
        "ideal_graph": v.tolist(),
        "lattice": {f"{t},{d}": mode for (t, d), mode in config.coords.items()},
        "summary": summary,
    }
    out.with_suffix(".json").write_text(_to_json(payload))
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
    if args.seed is not None and args.shots is None:
        raise InputError("--seed cannot be used without --shots")
    seed = 7 if args.seed is None else args.seed
    configs = [LatticeConfig(*args.lattice, r)
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
        report = witness_from_variances(variances, baselines,
                                        args.threshold_factor)
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
            emp_report = witness_from_variances(emp, baselines,
                                                args.threshold_factor,
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
    text = _to_json(payload)
    if args.out:
        Path(args.out).write_text(text)
        print(f"record written to {args.out}")
    else:
        print(text)
    return 0


def cmd_verify_identities(args) -> int:
    if args.suite not in (None, *SUITES):
        raise InputError(f"unknown suite {args.suite!r}: choose from "
                         f"{', '.join(SUITES)}")
    half, pts = args.grid
    if args.seed is not None and (args.cases is not None
                                  or args.suite not in (None, "E", "all")):
        raise InputError("--seed cannot be used with --cases or suite M, L "
                         "or commutation: it seeds only the E battery")
    if args.suite is not None and args.cases is not None:
        raise InputError(f"suite {args.suite} cannot be used with --cases")
    if args.cases is not None:
        cases = _read_json(args.cases, "cases file")
        if not (isinstance(cases, list) and cases
                and all(isinstance(c, dict) for c in cases)):
            raise InputError(f"--cases file {args.cases} must hold a "
                             "non-empty JSON list of case objects")
        reports = run_cases(cases, pts, half)
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
        Path(args.report).write_text(_to_json(reports))
    return 0 if ok else 1


def cmd_sample_homodyne(args) -> int:
    config = LatticeConfig(*args.lattice, args.squeezing)
    f_q, f_p = lattice_factors(ideal_graph(config), config.r,
                               args.phase_delayed)
    sample_marginal(f_q if args.setting == "q" else f_p, args.shots,
                    args.seed, args.out)
    print(f"{args.shots} shots of the {args.setting} setting written to {args.out}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; main runs the cmd_* function
    that the subcommand names, looked up at each call."""
    parser = argparse.ArgumentParser(
        prog="bslsim", allow_abbrev=False,
        description="Simulate and verify bilayer-square-lattice cluster states")
    # no abbreviated flags: a word such as --r would name --report
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser,
                                                     allow_abbrev=False))

    p = sub.add_parser("build-bsl", help="build the lattice and export graphs")
    p.add_argument("--lattice", type=_lattice_arg, default=(3, 3), metavar="N,M")
    p.add_argument("-r", "--squeezing", type=float, default=1.0)
    p.add_argument("--out", type=_prefix_arg, default="bsl",
                   help="output path prefix")

    p = sub.add_parser("verify-nullifiers",
                       help="nullifier variances and the entanglement witness")
    p.add_argument("--lattice", type=_lattice_arg, default=(2, 2),
                   metavar="N,M", help="lattice size (default 2,2)")
    p.add_argument("--squeezing", dest="squeezing_list", type=float,
                   action="append", metavar="R")
    p.add_argument("--shots", type=_witness_shots_arg,
                   help="also run the sampled two-setting protocol, with "
                   "at least 2 shots")
    p.add_argument("--seed", type=_seed_arg,
                   help="sampling seed, with --shots (default 7)")
    p.add_argument("--threshold-factor", type=_threshold_factor_arg,
                   default=0.5,
                   help="witness threshold per vacuum variance (default 0.5)")
    p.add_argument("--report", type=_out_arg,
                   help="write the witness report JSON here")

    p = sub.add_parser("run-program", help="execute a measurement program")
    p.add_argument("program", help="program JSON path")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", type=_out_arg, help="write the record JSON here")

    p = sub.add_parser("verify-identities",
                       help="grid verification of the teleportation identities")
    # checked by cmd_verify_identities, not by choices=: the loose value of
    # an unknown flag would fill the suite, and argparse would report the
    # value as a bad suite before it reports the flag
    p.add_argument("suite", nargs="?", metavar="{" + ",".join(SUITES) + "}",
                   help="suite to run (default all)")
    p.add_argument("--grid", type=_grid_arg,
                   default=(DEFAULT_L, DEFAULT_POINTS), metavar="L,P")
    p.add_argument("--seed", type=_seed_arg, help="suite seed (default 7)")
    p.add_argument("--cases", help="JSON file with a list of cases to run")
    p.add_argument("--report", type=_out_arg,
                   help="write the batch report JSON here")

    p = sub.add_parser("sample-homodyne", help="export homodyne sample CSVs")
    p.add_argument("--lattice", type=_lattice_arg, default=(2, 2), metavar="N,M")
    p.add_argument("-r", "--squeezing", type=float, default=1.0)
    p.add_argument("--setting", choices=("q", "p"), required=True)
    p.add_argument("--shots", type=_shots_arg, default=10000)
    p.add_argument("--seed", type=_seed_arg, default=7)
    p.add_argument("--out", type=_out_arg, required=True)
    p.add_argument("--phase-delayed", action="store_true",
                   help="sample the quarter-rotated state instead")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (GraphStateError, GridError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
