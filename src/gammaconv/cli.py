"""Command-line surface: point/grid evaluation, renewal pmf, bench, export.

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

from . import barnabani, mathai, methods, moschopoulos, renewal
from .errors import ConvergenceError, DomainError, FitFailureError
from .model import ConvolutionSpec, MixtureExpSpec, canonicalize, validate_mixture
from .specfun import DEFAULT_CONTROL

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

    sub.add_parser("selftest", help="reduced-scale consistency checks")
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
    chosen = methods.lookup(args.method, spec, args.quantity, points)
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


def _cmd_selftest() -> int:
    failures = 0

    def check(name: str, ok: bool, measured: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({measured})")
        failures += 0 if ok else 1

    def agree(name: str, got: float, want: float, rel_tol: float) -> None:
        err = abs(got - want) / abs(want)
        check(name, err <= rel_tol, f"rel err {err:.3e}, tol {rel_tol:g}")

    spec2 = ConvolutionSpec.of((1.0, 1.0), (1.0, 2.0))
    d = mathai.density2(spec2, 1.0).value
    agree(
        "n=2 density matches hypoexponential closed form",
        d, np.exp(-0.5) - np.exp(-1.0), 1e-12,
    )
    agree(
        "n=2 Mathai/Moschopoulos density agreement",
        moschopoulos.density(spec2, 1.0).value, d, 1e-12,
    )
    # density2 over z = (1/0.3 - 1/4) x of about 30-130, which spans the
    # 1F1's switches from the short series to the log-space blocks and on
    # to the large-z form.
    wide = ConvolutionSpec.of((20.0, 0.3), (20.0, 4.0))
    worst = max(
        abs(mathai.density2(wide, x).value / moschopoulos.density(wide, x).value - 1.0)
        for x in np.linspace(10.0, 42.0, 33)
    )
    check(
        "n=2 density2 equals per-point moschopoulos on z = 30-130",
        worst <= 1e-12,
        f"worst rel diff {worst:.3e}, tol 1e-12",
    )
    spec3 = ConvolutionSpec.of((0.2, 4.0), (0.2, 0.3), (0.2, 0.2))
    for x in (0.3, 1.0, 3.0):
        agree(
            f"n=3 cross-method density agreement at x={x}",
            mathai.density_n(spec3, x).value,
            moschopoulos.density(spec3, x).value,
            1e-10,
        )
    xs = [0.25 * k for k in range(1, 21)]
    shared = methods.evaluate("moschopoulos", "density", spec3, xs)
    alone = [moschopoulos.density(spec3, x) for x in xs]
    worst = max(abs(s.value - a.value) for s, a in zip(shared, alone))
    check(
        "20-point evaluate equals per-point moschopoulos",
        shared == alone,
        f"worst |diff| {worst:.3e}",
    )
    rows = methods.evaluate("approx", "cdf", spec3, xs)
    calls = [barnabani.cdf_approx(spec3, x) for x in xs]
    worst = max(abs(r.value - c.value) for r, c in zip(rows, calls))
    check(
        "20-point evaluate equals per-point approx CDF",
        rows == calls,
        f"worst |diff| {worst:.3e}",
    )
    ys = [0.8 * k for k in range(1, 21)]  # u = y/0.2 from 4 to 80
    rows = methods.evaluate("moschopoulos", "cdf", spec3, ys)
    calls = [moschopoulos.cdf(spec3, y) for y in ys]
    worst = max(abs(r.value - c.value) for r, c in zip(rows, calls))
    check(
        "20-point evaluate equals per-point moschopoulos CDF across u = 64",
        rows == calls,
        f"worst |diff| {worst:.3e}",
    )
    auto = methods.evaluate("auto", "density", spec3, xs)
    worst = max(abs(s.value - a.value) / a.value for s, a in zip(auto, alone))
    check(
        "auto n=3 equals per-point and moschopoulos",
        auto == [methods.nbsum_density(spec3, x) for x in xs] and worst <= 1e-12,
        f"worst rel diff from moschopoulos {worst:.3e}, tol 1e-12",
    )
    full_law = methods.nb_sum_law(canonicalize(spec3), DEFAULT_CONTROL)
    full = methods.converge_rows(
        "density", xs, DEFAULT_CONTROL, full_law, [full_law.masses.shape[0]] * len(xs)
    )
    cut = [methods.nbsum_density(spec3, x) for x in xs]
    worst = max(abs(c.value - f.value) / f.value for c, f in zip(cut, full))
    check(
        "point-sized nbsum density equals the full stage",
        worst <= DEFAULT_CONTROL.rel_tol,
        f"worst rel diff {worst:.3e} over stages of {min(c.terms_used for c in cut)}-"
        f"{full_law.masses.shape[0]} masses, tol {DEFAULT_CONTROL.rel_tol:g}",
    )
    shared = methods.evaluate("mathai", "density", spec3, xs)
    alone = [mathai.density_n(spec3, x) for x in xs]
    worst = max(abs(s.value - a.value) for s, a in zip(shared, alone))
    check(
        "shared-table mathai n=3 density equals per-point",
        shared == alone,
        f"worst |diff| {worst:.3e}",
    )
    w = moschopoulos.build_weights(spec3, 400)
    mass = w.c * float(w.deltas.sum())
    check(
        "weight mass near one",
        1.0 - 5e-4 < mass <= 1.0 + 1e-12,
        f"1 - mass {1.0 - mass:.3e}",
    )
    convolved = methods.nb_sum_law(canonicalize(spec3), count=401).masses
    worst = float(np.max(np.abs(convolved - w.masses) / w.masses))
    check("NB-sum law equals recursion weights", worst <= 1e-12,
          f"worst rel diff {worst:.3e}, tol 1e-12")
    mix = MixtureExpSpec((0.5, 0.5), (1.0, 2.0))
    agree(
        "renewal n=0 equals mixture survival",
        renewal.pmf_s2(mix, renewal.RenewalQuery(1.0, 0)),
        0.5 * np.exp(-1.0) + 0.5 * np.exp(-0.5),
        1e-12,
    )
    agree(
        "proposition equals raw formula",
        renewal.pmf_s2(mix, renewal.RenewalQuery(1.0, 2)),
        renewal.pmf_raw_s2(mix, renewal.RenewalQuery(1.0, 2), "mathai"),
        1e-10,
    )
    mix3 = MixtureExpSpec((0.1, 0.2, 0.7), (4.0, 0.3, 0.2))
    uniformized = renewal.pmf_vector(mix3, 10.0, 10)
    composed = {n: renewal.pmf_general(mix3, renewal.RenewalQuery(10.0, n)) for n in (0, 5, 10)}
    worst = max(abs(uniformized[n] - value) / value for n, value in composed.items())
    check("uniformized S=3 pmf equals composition", worst <= 1e-12,
          f"worst rel diff {worst:.3e}, tol 1e-12")
    # Criterion 7's envelope: the approximation is relatively accurate,
    # and the density diverges at the origin for this spec (rho = 0.6).
    agree(
        "approximation close to exact",
        barnabani.density_approx(spec3, 1.0).value,
        moschopoulos.density(spec3, 1.0).value,
        5e-2,
    )
    return EXIT_OK if failures == 0 else 1


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
        if args.command == "selftest":
            return _cmd_selftest()
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
