"""Command-line interface for the localization experiments.

Exit codes: 0 success, 1 invalid input, 2 solver failure,
3 not quasi-monotone (qm-check only).
"""
from __future__ import annotations

import argparse
import json
import sys

from .coeff import attach_coefficient, check_quasi_monotonicity
from .errors import QmlocError, SolverFailure
from .harness import (DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_EPS, DEFAULT_N,
                      emit_report, estimate_inequality_constants,
                      run_alpha_robustness, run_hexagon_sweep,
                      run_reaction_diffusion, run_star_sweep)
from .mesh import load_mesh

EXIT_OK, EXIT_INVALID, EXIT_SOLVER, EXIT_NOT_QM = 0, 1, 2, 3


def _floats(text: str):
    return tuple(float(tok) for tok in text.split(",") if tok)


def _ints(text: str):
    return tuple(int(tok) for tok in text.split(",") if tok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmloc",
        description="Localization of best approximation errors under "
                    "piecewise-constant diffusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options shared by several commands, each declared once
    ell = argparse.ArgumentParser(add_help=False)
    ell.add_argument("--ell", type=int, default=1, help="polynomial degree")
    sweep = argparse.ArgumentParser(add_help=False, parents=[ell])
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--output", default=None)
    fig1 = argparse.ArgumentParser(add_help=False, parents=[sweep])
    fig1.add_argument("--pattern", default="fig1-left")
    fig1.add_argument("--refines", type=int, default=2)

    qm = sub.add_parser("qm-check", parents=[ell],
                        help="classify a mesh+coefficient as quasi-monotone")
    qm.add_argument("mesh", help="mesh JSON file with a 'coefficient' entry")

    hexa = sub.add_parser("hexagon", parents=[sweep], help="contrast sweep on the hexagon example")
    hexa.add_argument("--eps", type=_floats, default=DEFAULT_EPS)

    stars = sub.add_parser("stars", parents=[sweep],
                           help="star sweep on the checkerboard example")
    stars.add_argument("--n", type=_ints, default=DEFAULT_N)

    alpha = sub.add_parser("alpha", parents=[fig1],
                           help="contrast-robustness sweep on a quasi-monotone tiling")
    alpha.add_argument("--alphas", type=_floats, default=DEFAULT_ALPHA)

    rd = sub.add_parser("rd", parents=[fig1], help="reaction-diffusion equivalence sweep")
    rd.add_argument("--alphas", type=_floats, default=(1.0, 1e-4))
    rd.add_argument("--betas", type=_floats, default=DEFAULT_BETA)

    const = sub.add_parser("constants", parents=[ell],
                           help="measure scaling/trace/Poincare constants")
    const.add_argument("--levels", type=int, default=4)
    return parser


def _cmd_qm_check(args) -> int:
    tri, values = load_mesh(args.mesh)
    if values is None:
        print("error: mesh file has no 'coefficient' entry", file=sys.stderr)
        return EXIT_INVALID
    coeff = attach_coefficient(tri, values)
    report = check_quasi_monotonicity(tri, coeff, degree=args.ell)
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    return EXIT_OK if report.quasi_monotone else EXIT_NOT_QM


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; 2 is reserved for solver failures
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        if args.command == "qm-check":
            return _cmd_qm_check(args)
        if args.command == "constants":
            record = estimate_inequality_constants(args.levels, degree=args.ell)
            print(json.dumps(record, sort_keys=True, indent=2))
            return EXIT_OK
        if args.command == "hexagon":
            reports = run_hexagon_sweep(args.eps, degree=args.ell)
        elif args.command == "stars":
            reports = run_star_sweep(args.n, degree=args.ell)
        elif args.command == "alpha":
            reports = run_alpha_robustness(args.pattern, args.alphas,
                                           degree=args.ell, refines=args.refines)
        else:  # rd; argparse enforces the choices
            reports = run_reaction_diffusion(args.pattern, args.alphas, args.betas,
                                             degree=args.ell, refines=args.refines)
        text = emit_report(reports, args.format, args.output)
        if args.output is None:
            sys.stdout.write(text)
        return EXIT_OK
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError, QmlocError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
