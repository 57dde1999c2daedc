"""Command-line surface: the `eval`, `renewal`, `bench` and `figure-error` commands.

Exit codes: 0 success, 2 usage/validation error, 3 numerical
non-convergence, 4 approximation fit failure.

`main(argv)` may be called any number of times in one process; every
call parses with the one parser `_build_parser` builds on the first.
Building it costs about 1 ms, against about 0.1 ms to parse one argv.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import time
from typing import Iterable

import numpy as np

# The commands call methods and renewal alone, but importing cli loads every
# layer module: perfbench/tracer.py reads them all from sys.modules.
from . import barnabani, mathai, methods, moschopoulos, renewal  # noqa: F401
from .errors import ConvergenceError, DomainError, FitFailureError
from .model import ConvolutionSpec, MixtureExpSpec, canonicalize, validate_mixture

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3
EXIT_FIT_FAILURE = 4


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _grid_spec(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:count, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    return np.linspace(lo, hi, count)


def _format(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def write_csv(rows: Iterable[dict], stream) -> None:
    rows = list(rows)
    if not rows:
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _format(v) for k, v in row.items()})


def _write_rows(rows: list[dict], out: str | None) -> None:
    """CSV to the file `out`, or to stdout when it is None."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            write_csv(rows, handle)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        write_csv(rows, sys.stdout)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's one parser, built once per process: parsing leaves it
    unchanged, and it writes help and errors to the sys.stdout and
    sys.stderr of the moment, so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="gammaconv",
        description="Gamma-convolution densities/CDFs and renewal count pmfs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate density or cdf at points")
    p_eval.add_argument("quantity", choices=["density", "cdf"])
    p_eval.add_argument("--shape", type=_float_list, required=True)
    p_eval.add_argument("--scale", type=_float_list, required=True)
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--at", type=_float_list)
    group.add_argument("--grid", type=_grid_spec)
    p_eval.add_argument(
        "--method",
        choices=[*methods.METHODS, "auto"],
        default="auto",
    )
    p_eval.add_argument("--tol", type=float, default=None)
    p_eval.add_argument("--max-terms", type=int, default=None)
    p_eval.add_argument("--format", choices=["csv", "json"], default="csv")

    p_renew = sub.add_parser("renewal", help="renewal count pmf Pr(N(t) = n)")
    p_renew.add_argument("--weights", type=_float_list, required=True)
    p_renew.add_argument("--scales", type=_float_list, required=True)
    p_renew.add_argument("--t", type=float, required=True)
    p_renew.add_argument("--n", type=_int_list, required=True)
    p_renew.add_argument(
        "--method",
        choices=renewal.RENEWAL_METHODS,
        default="proposition",
    )

    p_bench = sub.add_parser("bench", help="timing suites over the built-in benchmark settings")
    p_bench.add_argument(
        "--suite", choices=["coga2", "coga3", "renew2", "renew3"], required=True
    )
    p_bench.add_argument("--replicates", type=_positive_int, default=10)
    p_bench.add_argument("--samples", type=_positive_int, default=100_000)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", type=str, default=None)

    p_fig = sub.add_parser(
        "figure-error", help="approximation-vs-exact differences over a bulk grid"
    )
    p_fig.add_argument("--setup", type=int, required=True)
    p_fig.add_argument("--out", type=str, default=None)
    p_fig.add_argument("--seed", type=int, default=None)
    return parser


def _cmd_eval(args) -> int:
    if len(args.shape) != len(args.scale):
        print(
            f"error: {len(args.shape)} shapes but {len(args.scale)} scales",
            file=sys.stderr,
        )
        return EXIT_USAGE
    spec = canonicalize(ConvolutionSpec.of(*zip(args.shape, args.scale)))
    points = [float(point) for point in (args.at if args.at is not None else args.grid)]
    chosen = methods.lookup(args.method, spec, points)
    given = {"rel_tol": args.tol, "max_terms": args.max_terms}
    ctrl = dataclasses.replace(
        chosen.control, **{k: v for k, v in given.items() if v is not None}
    )

    start = time.perf_counter_ns()
    results = methods.evaluate(chosen.name, args.quantity, spec, points, ctrl)
    per_point = (time.perf_counter_ns() - start) // max(len(points), 1)
    rows = [
        {
            "point": point,
            "value": result.value,
            "terms_used": result.terms_used,
            "tail_bound": result.tail_bound,
            "method": chosen.name,
            "wall_time_ns": per_point,
        }
        for point, result in zip(points, results)
    ]
    if args.format == "json":
        print(json.dumps(rows, default=float))
    else:
        write_csv(rows, sys.stdout)
    return EXIT_OK


def _cmd_renewal(args) -> int:
    mix = validate_mixture(MixtureExpSpec(tuple(args.weights), tuple(args.scales)))
    queries = [renewal.RenewalQuery(args.t, n) for n in args.n]
    if args.method == "proposition" and mix.size > 2 and queries:
        # One uniformization pass answers every n; its time is split
        # evenly over the rows, as `eval` splits a shared law's.
        start = time.perf_counter_ns()
        values = renewal.pmf_vector(mix, args.t, max(args.n))
        per_row = (time.perf_counter_ns() - start) // len(queries)
        timed = [(float(values[q.n]), per_row) for q in queries]
    else:
        timed = []
        for q in queries:
            start = time.perf_counter_ns()
            pmf = renewal.pmf(mix, q, args.method)
            timed.append((pmf, time.perf_counter_ns() - start))
    rows = [
        {"n": q.n, "pmf": pmf, "method": args.method, "wall_time_ns": elapsed}
        for q, (pmf, elapsed) in zip(queries, timed)
    ]
    write_csv(rows, sys.stdout)
    return EXIT_OK


def _cmd_bench(args) -> int:
    from . import bench

    rows = bench.run_suite(
        args.suite,
        replicates=args.replicates,
        n_samples=args.samples,
        seed=args.seed,
    )
    _write_rows(rows, args.out)
    return EXIT_OK


def _cmd_figure_error(args) -> int:
    from . import bench

    try:
        rows = bench.figure_error_rows(args.setup, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_rows(rows, args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "renewal":
            return _cmd_renewal(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "figure-error":
            return _cmd_figure_error(args)
        parser.error(f"unknown command {args.command!r}")
    except ConvergenceError as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except FitFailureError as exc:
        print(f"error: approximation fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT_FAILURE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
