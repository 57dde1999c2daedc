"""In-process tests of the gammaconv command-line interface."""

import argparse
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import gammaconv
from gammaconv.cli import (
    EXIT_FIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from gammaconv import cli, methods
from gammaconv.model import ConvolutionSpec
from gammaconv.specfun import SeriesControl


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestEval:
    def test_density_values_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "density",
            "--shape", "1,1", "--scale", "1,2", "--at", "1.0,2.0",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 2
        want = math.exp(-0.5) - math.exp(-1.0)  # hypoexponential at x = 1
        assert abs(float(rows[0]["value"]) - want) < 1e-12
        assert rows[0]["method"] == "mathai"
        assert int(rows[0]["terms_used"]) >= 1

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "cdf",
            "--shape", "2.0", "--scale", "3.0", "--at", "6.0",
            "--format", "json",
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert abs(rows[0]["value"] - stats.gamma.cdf(6.0, 2.0, scale=3.0)) < 1e-12

    def test_grid_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "density",
            "--shape", "2,2", "--scale", "2,3", "--grid", "1:9:5",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [float(r["point"]) for r in rows] == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_methods_agree(self, capsys):
        args = ["eval", "density", "--shape", "2,2,2", "--scale", "2,3,5",
                "--at", "10.0"]
        _, out_m, _ = run_cli(capsys, *args, "--method", "mathai")
        _, out_s, _ = run_cli(capsys, *args, "--method", "moschopoulos")
        v1 = float(parse_csv(out_m)[0]["value"])
        v2 = float(parse_csv(out_s)[0]["value"])
        assert abs(v1 - v2) < 1e-12 * v1

    def test_auto_picks_by_predicted_build_cost(self, capsys):
        # From three components auto takes nbsum, unless the recursion is
        # predicted to build the first stage the request needs more
        # cheaply: never below n = 8 (n = 6 here, whose cumulant stage
        # holds about 3,700 masses, at x = 3000 as well); at n = 8, whose
        # cumulant stage holds about 6,700 masses, for a point at x = 8000,
        # whose kernel reaches past that stage; at x = 1000 nbsum's stage
        # is cut at about 1,300 masses.
        n6 = ("5,5,5,5,5,5", "1,2.5,6.3,15.8,39.8,100")
        n8 = ("1,1,1,1,1,1,1,1", "1,2,4,8,16,32,64,500")
        for shape, scale, at, want in (
            ("2,2,2", "2,3,5", "10", "nbsum"),
            (*n6, "1000", "nbsum"),
            (*n6, "3000", "nbsum"),
            (*n8, "1000", "nbsum"),
            (*n8, "8000", "moschopoulos"),
        ):
            code, out, _ = run_cli(
                capsys,
                "eval", "density", "--shape", shape, "--scale", scale, "--at", at,
            )
            assert code == EXIT_OK
            assert parse_csv(out)[0]["method"] == want

    def test_mismatched_lengths_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "density", "--shape", "1,2", "--scale", "1", "--at", "1",
        )
        assert code == EXIT_USAGE
        assert "shapes" in err

    def test_bad_domain_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "density", "--shape", "-1", "--scale", "1", "--at", "1",
        )
        assert code == EXIT_USAGE
        assert "error" in err

    def test_deterministic_values(self, capsys):
        args = ["eval", "cdf", "--shape", "0.4,0.3", "--scale", "27,32",
                "--at", "5,15,25"]
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        va = [r["value"] for r in parse_csv(out_a)]
        vb = [r["value"] for r in parse_csv(out_b)]
        assert va == vb

    def test_fit_failure_exit_code(self, capsys):
        # This shape/scale mix admits no GNBD moment match.
        code, _, err = run_cli(
            capsys,
            "eval", "density", "--shape", "0.4,0.3,0.2",
            "--scale", "27,32,40", "--at", "10", "--method", "approx",
        )
        assert code == EXIT_FIT_FAILURE
        assert "fit" in err


    @pytest.mark.parametrize(
        "method,shapes,flag,value,want",
        [
            # --tol alone keeps the approximation's own max_terms.
            ("approx", "2,2,2", "--tol", "1e-10",
             SeriesControl(rel_tol=1e-10, max_terms=200_000)),
            # --max-terms alone keeps the n >= 3 series' own rel_tol.
            ("mathai", "2,2,2", "--max-terms", "5000",
             SeriesControl(rel_tol=1e-13, max_terms=5000)),
        ],
    )
    def test_control_flags_override_one_field(
        self, capsys, monkeypatch, method, shapes, flag, value, want
    ):
        seen = []
        real = methods.evaluate

        def spy(method, quantity, spec, points, ctrl):
            seen.append(ctrl)
            return real(method, quantity, spec, points, ctrl)

        monkeypatch.setattr(methods, "evaluate", spy)
        code, _, _ = run_cli(
            capsys,
            "eval", "density", "--shape", shapes, "--scale", "2,3,5",
            "--at", "10", "--method", method, flag, value,
        )
        assert code == EXIT_OK
        assert seen == [want]


class TestRenewal:
    def test_known_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "renewal", "--weights", "0.5,0.5", "--scales", "1,2",
            "--t", "1", "--n", "0",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert abs(float(rows[0]["pmf"]) - 0.4872050504420379) < 1e-12

    def test_methods_agree(self, capsys):
        base = ["renewal", "--weights", "0.4,0.6", "--scales", "2,5",
                "--t", "10", "--n", "0,2,5"]
        _, out_p, _ = run_cli(capsys, *base)
        _, out_r, _ = run_cli(capsys, *base, "--method", "raw-moschopoulos")
        for a, b in zip(parse_csv(out_p), parse_csv(out_r)):
            assert abs(float(a["pmf"]) - float(b["pmf"])) < 1e-11

    def test_s3_proposition_rows_from_one_pass(self, capsys):
        # All 41 rows come from one uniformization pass; each matches the
        # per-n route, and the pass time is split evenly over the rows.
        from gammaconv import renewal
        from gammaconv.model import MixtureExpSpec

        code, out, _ = run_cli(
            capsys,
            "renewal", "--weights", "0.1,0.2,0.7", "--scales", "0.4,0.3,0.2",
            "--t", "10", "--n", ",".join(str(n) for n in range(41)),
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        mix = MixtureExpSpec((0.1, 0.2, 0.7), (0.4, 0.3, 0.2))
        for row in rows:
            want = renewal.pmf(mix, renewal.RenewalQuery(10.0, int(row["n"])))
            assert abs(float(row["pmf"]) - want) <= 1e-14 * want
        assert [int(row["n"]) for row in rows] == list(range(41))
        assert len({row["wall_time_ns"] for row in rows}) == 1

    @pytest.mark.parametrize("weights,scales", [
        ("0.5,0.5", "0.4,0.3"), ("0.1,0.2,0.7", "4,0.3,0.2"),
    ], ids=["S2", "S3"])
    def test_count_over_budget_usage_error(self, capsys, weights, scales):
        # n = 20000 is over the default max_terms of 10000.
        code, out, err = run_cli(
            capsys,
            "renewal", "--weights", weights, "--scales", scales,
            "--t", "10", "--n", "20000",
        )
        assert code == EXIT_USAGE
        assert out == "" and "max_terms" in err

    def test_vanishing_weight_raw_route(self, capsys):
        # validate_mixture renormalizes the weights to exactly (1.0, 1e-300).
        code, out, err = run_cli(
            capsys,
            "renewal", "--weights", "1,1e-300", "--scales", "2,5",
            "--t", "10", "--n", "3", "--method", "raw-mathai",
        )
        assert code == EXIT_OK and err == ""
        assert abs(float(parse_csv(out)[0]["pmf"]) - stats.poisson.pmf(3, 5.0)) < 1e-13

    def test_bad_weights_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "renewal", "--weights", "0.5,0.6", "--scales", "1,2",
            "--t", "1", "--n", "0",
        )
        assert code == EXIT_USAGE
        assert "error" in err


class TestExtremeSpecs:
    # Valid but extreme inputs end in a GammaConvError exit code (usage 2,
    # non-convergence 3, fit failure 4), never in a traceback: a scale
    # ratio past 1e108, where q^3 of the weight cumulants underflows, and a
    # total shape past lgamma's range.
    @pytest.mark.parametrize("method", ["mathai", "moschopoulos", "nbsum", "approx", "auto"])
    @pytest.mark.parametrize("quantity", ["density", "cdf"])
    @pytest.mark.parametrize("shape,scale", [
        ("2,3", "1e-110,1"), ("2,3,1", "1e-110,1,2"), ("3e305,1", "1,2"),
    ], ids=["ratio-n2", "ratio-n3", "shape"])
    def test_exit_code_not_traceback(self, capsys, shape, scale, quantity, method):
        code, _, err = run_cli(
            capsys,
            "eval", quantity, "--shape", shape, "--scale", scale, "--at", "1",
            "--method", method,
        )
        assert code in (2, 3, 4)
        assert "Traceback" not in err and "error" in err

    def test_renewal_scale_ratio(self, capsys):
        code, _, err = run_cli(
            capsys,
            "renewal", "--weights", "0.5,0.5", "--scales", "1e-120,1",
            "--t", "1", "--n", "2", "--method", "raw-mathai",
        )
        assert code == 3
        assert "Traceback" not in err

    # n = 8 past the crossover, where auto's price favours the recursion,
    # but its constant C = prod (b1/b_i)^a_i is e^-4460: the recursion's
    # weights C delta_k would take deltas past the double range.
    OVERFLOW_SPEC = ("--shape", ",".join(["900"] * 8),
                     "--scale", "1,2,2.01,2.02,2.03,2.04,2.05,2.06", "--at", "13500,15000")

    @pytest.mark.parametrize("quantity", ["density", "cdf"])
    def test_auto_answers_where_the_recursion_would_overflow(self, capsys, quantity):
        code, out, err = run_cli(capsys, "eval", quantity, *self.OVERFLOW_SPEC,
                                 "--method", "auto", "--format", "json")
        assert code == EXIT_OK and err == ""
        rows = json.loads(out)
        assert {row["method"] for row in rows} == {"nbsum"}
        assert all(7_262 <= row["terms_used"] <= 10_001 for row in rows)
        assert all(math.isfinite(row["value"]) and row["value"] > 0.0 for row in rows)

    @pytest.mark.parametrize("quantity", ["density", "cdf"])
    def test_recursion_refuses_an_underflowing_constant(self, capsys, quantity):
        code, out, err = run_cli(capsys, "eval", quantity, *self.OVERFLOW_SPEC,
                                 "--method", "moschopoulos")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert "smallest normal double" in err and "nan" not in err

    def test_subnormal_shapes_are_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "density", "--shape", "1e-310,1e-311,1e-312",
            "--scale", "1,2,3", "--at", "1e-300,1", "--method", "mathai",
        )
        assert code == EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1 and "shape" in err

    @pytest.mark.parametrize("method", ["mathai", "auto"])
    def test_large_shape_density(self, capsys, method):
        # The 1F1 term peak lies below k = 0 here (peak = -1).
        argv = ["eval", "density", "--shape", "1e6,1", "--scale", "1,2", "--at", "1e6"]
        code, out, _ = run_cli(capsys, *argv, "--method", method)
        assert code == EXIT_OK
        _, ref_out, _ = run_cli(capsys, *argv, "--method", "moschopoulos")
        got, want = float(parse_csv(out)[0]["value"]), float(parse_csv(ref_out)[0]["value"])
        assert abs(got / want - 1.0) < 1e-8


class TestSeededSweep:
    # Random specs across the model's range, at points from the far left
    # tail to 1e3 x the mean: every request is answered or cleanly refused
    # (usage 2, non-convergence 3, fit failure 4), with one stderr line and
    # no NaN.  The requests run through cli.main in one child process, with
    # numpy's warnings as errors as in this test config: a GNBD fit check
    # at a weight mean in the millions takes arrays of about 150 MB, and
    # freeing them here would raise glibc's mmap threshold for every later
    # test of this process.
    CHILD = (
        "import contextlib, io, json, sys\n"
        "from gammaconv import cli\n"
        "for argv in json.load(sys.stdin):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = cli.main(argv)\n"
        "    print(json.dumps([code, out.getvalue(), err.getvalue()]))\n"
    )

    def test_every_request_is_answered_or_refused(self):
        rng = random.Random(20261022)
        routes = [(method, quantity) for method in (*methods.METHODS, "auto")
                  for quantity in ("density", "cdf")]
        requests = []
        for i in range(100):
            method, quantity = routes[i % len(routes)]
            n = rng.randint(1, 5)
            shapes = [10.0 ** rng.uniform(-3.0, 4.0) for _ in range(n)]
            scales = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(n)]
            mean = sum(a * b for a, b in zip(shapes, scales))
            points = [f * mean for f in (1e-6, 0.5, 2.0, 1e3)]
            requests.append([
                "eval", quantity, "--method", method, "--format", "json",
                "--shape", ",".join(map(repr, shapes)), "--scale", ",".join(map(repr, scales)),
                "--at", ",".join(map(repr, points)),
            ])
        src = str(Path(gammaconv.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        child = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
             "-c", self.CHILD],
            input=json.dumps(requests), env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0 and child.stderr == ""
        answers = [json.loads(line) for line in child.stdout.splitlines()]
        assert len(answers) == len(requests)
        for argv, (code, out, err) in zip(requests, answers):
            assert code in (0, 2, 3, 4)
            if code != EXIT_OK:
                assert out == "" and len(err.splitlines()) == 1 and "nan" not in err.lower()
                continue
            assert err == ""
            values = [row["value"] for row in json.loads(out)]
            assert all(math.isfinite(v) and v >= 0.0 for v in values)
            if argv[1] == "cdf":
                assert values == sorted(values) and values[-1] <= 1.0


class TestFigureError:
    def test_unknown_setup(self, capsys):
        code, _, err = run_cli(capsys, "figure-error", "--setup", "9")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_known_setup_rows(self, capsys):
        code, out, _ = run_cli(capsys, "figure-error", "--setup", "1")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) > 0
        for column in ("x", "exact_density", "approx_density", "density_diff",
                       "exact_cdf", "approx_cdf", "cdf_diff"):
            assert column in rows[0]
        assert float(rows[0]["x"]) > 0.0


class TestBench:
    def test_small_run_writes_csv(self, capsys, tmp_path):
        out_file = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys,
            "bench", "--suite", "renew2", "--replicates", "1",
            "--samples", "1000", "--out", str(out_file),
        )
        assert code == EXIT_OK
        assert "wrote" in out
        rows = parse_csv(out_file.read_text())
        assert len(rows) > 0

    def test_default_seed_is_fixed(self, monkeypatch):
        from gammaconv import bench

        monkeypatch.setenv("GAMMACONV_SEED", "1")
        spec = ConvolutionSpec.of((2.0, 1.0), (3.0, 2.0))
        default = bench.bulk_grid(spec, n_samples=1000)
        assert np.array_equal(default, bench.bulk_grid(spec, 1000, bench.DEFAULT_SEED))

    @pytest.mark.parametrize("suite,option", [("renew2", "--replicates"), ("coga2", "--samples")])
    def test_zero_count_is_a_usage_error(self, capsys, monkeypatch, suite, option):
        from gammaconv import bench

        runs = []
        monkeypatch.setattr(bench, "run_suite", lambda *args, **kwargs: runs.append(args))
        code, _, err = run_cli(capsys, "bench", "--suite", suite, option, "0")
        assert code == EXIT_USAGE
        assert f"{option}: expected an integer >= 1, got 0" in err
        assert runs == []


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_bad_grid_spec(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "eval", "density", "--shape", "1", "--scale", "1",
            "--grid", "1:2",
        )
        assert code == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == EXIT_OK


def without_wall_time(out):
    """`out` with the wall_time_ns column, always the last, cut from CSV rows."""
    lines = out.splitlines()
    if lines and lines[0].endswith(",wall_time_ns"):
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return lines


class TestParserReuse:
    ARGVS = [
        ["--help"],
        ["eval", "--help"],
        ["eval", "density", "--shape", "1", "--scale", "1", "--grid", "3:1:4"],
        ["no-such-command"],
        ["eval", "cdf", "--shape", "2,0.5,3", "--scale", "1,2,0.3", "--at", "0.5,2,7"],
        ["renewal", "--weights", "0.4,0.6", "--scales", "2,5", "--t", "10", "--n", "0,3"],
    ]

    def test_repeated_calls_answer_as_a_fresh_parser(self, capsys):
        # Each argv first on a freshly built parser, then all in turn on
        # one shared parser: usage errors and help must not change it.
        fresh = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()
            code, out, err = run_cli(capsys, *argv)
            fresh.append((code, without_wall_time(out), err))
        shared = []
        for argv in self.ARGVS:
            code, out, err = run_cli(capsys, *argv)
            shared.append((code, without_wall_time(out), err))
        assert shared == fresh
        assert [code for code, _, _ in fresh] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_USAGE,
                                                   EXIT_OK, EXIT_OK]

    def test_main_builds_no_parser_after_the_first_call(self, capsys, monkeypatch):
        run_cli(capsys, "--help")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in self.ARGVS:
            run_cli(capsys, *argv)
        assert built == []


def test_import_loads_every_layer_module():
    # perfbench/tracer.py imports gammaconv.cli alone, then reads each of
    # its LAYER_MODULES from sys.modules.
    layers = ["specfun", "moschopoulos", "barnabani", "mathai", "renewal", "model"]
    code = (
        "import sys\n"
        "import gammaconv.cli\n"
        f"print([m for m in {layers!r} if 'gammaconv.' + m not in sys.modules])\n"
    )
    src = str(Path(gammaconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "[]\n"
