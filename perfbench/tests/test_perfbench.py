"""Tests of the benchmark itself: checker, tracer, seeding, declared names.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def inputs():
    return wl.load_inputs()


def _request(inputs, rid):
    pool = wl.paper_grid_requests(inputs) + wl.renewal_requests(inputs)
    return next(r for r in pool if r.rid == rid)


def _eval_stdout(values):
    return json.dumps([{"point": 0.0, "value": v} for v in values])


def _tally(req, code, stdout):
    tally = check.Tally()
    check.check_request(req, code, stdout, tally)
    return tally


def test_checker_passes_references_and_flags_a_perturbed_value(inputs):
    req = _request(inputs, "eval-density-mathai-a2-b0.4_0.3")
    values = [op.ref for op in req.ops]
    assert _tally(req, 0, _eval_stdout(values)).failed == 0
    values[17] *= 1.0 + 1e-9
    tally = _tally(req, 0, _eval_stdout(values))
    assert (tally.failed, tally.unexpected, tally.correct) == (1, 1, False)


def test_checker_flags_a_perturbed_renewal_pmf(inputs):
    req = _request(inputs, "renewal-proposition-S3-b4_3_2-n4")
    ref = req.ops[0].ref
    good = f"n,pmf,method,wall_time_ns\n4,{ref!r},proposition,1\n"
    bad = f"n,pmf,method,wall_time_ns\n4,{ref * (1 + 1e-8)!r},proposition,1\n"
    assert _tally(req, 0, good).correct
    assert not _tally(req, 0, bad).correct


def test_known_defect_counts_as_failed_without_making_the_run_incorrect(inputs):
    defect = inputs["known_defects"][0]
    rid = f"eval-{defect['kind']}-approx-{defect['grid']}"
    req = _request(inputs, rid)
    values = [op.ref for op in req.ops]
    values[defect["index"]] += 1.0
    tally = _tally(req, 0, _eval_stdout(values))
    assert (tally.failed, tally.known_defect, tally.correct) == (1, 1, True)
    # the same miss at an unregistered point is a new wrong answer
    values = [op.ref for op in req.ops]
    other = next(i for i, op in enumerate(req.ops) if not op.known_defect)
    values[other] += 1.0
    assert not _tally(req, 0, _eval_stdout(values)).correct


def test_nonzero_exit_fails_every_op(inputs):
    req = _request(inputs, "eval-cdf-moschopoulos-a2-b4_3")
    tally = _tally(req, 3, "")
    assert (tally.failed, tally.unexpected) == (len(req.ops), len(req.ops))
    # an infeasible fit is a known defect only where it may happen (spec-stream approx)
    assert not _tally(_request(inputs, "eval-cdf-approx-a2-b4_3_2"), 4, "").correct
    stream_approx = next(r for r in wl.stream_requests(1, "t", 40) if "approx" in r.argv)
    tally = _tally(stream_approx, 4, "")
    assert tally.correct and tally.known_defect == len(stream_approx.ops)


def test_a_wrong_approximation_on_spec_stream_makes_the_run_incorrect():
    req = next(r for r in wl.stream_requests(1, "t", 40) if "approx" in r.argv)
    req.ops[req.stream["check"]].ref = 0.25
    values = [0.25] * len(req.ops)
    assert _tally(req, 0, _eval_stdout(values)).correct
    values[req.stream["check"]] += 0.005  # inside the 1e-2 envelope
    assert _tally(req, 0, _eval_stdout(values)).correct
    values[req.stream["check"]] += 0.01
    tally = _tally(req, 0, _eval_stdout(values))
    assert (tally.failed, tally.unexpected, tally.correct) == (1, 1, False)


def _bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("gammaconv") and module is not None
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_traced_run_records_layers_and_leaves_no_wrappers(inputs):
    import gammaconv.cli as cli
    from gammaconv import barnabani, mathai, renewal

    before = _bindings()
    trace = tracer.Tracer()
    assert trace.install() > 0
    for by_name in (mathai.kummer_1f1_terms, renewal.kummer_1f1, barnabani.fit_gnbd):
        assert hasattr(by_name, "__perfbench_original__")
    for rid in ("eval-density-mathai-a2-b4_3", "eval-cdf-approx-a2-b4_3_2"):
        req = _request(inputs, rid)
        trace.rid = rid
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(req.argv) == 0
    trace.restore()

    after = _bindings()
    assert tracer.leftover_wrappers() == []
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())

    summary = tracer.summarize(trace.spans)
    groups = summary["groups"]
    assert groups["mathai.n2"]["calls"] == 100
    assert groups["specfun.kummer"]["calls"] == 100
    assert groups["barnabani.eval"]["calls"] == 100
    assert groups["cli.main"]["calls"] == 2
    # self times add up to the root span of each request
    for rid, self_s in summary["per_request_self_s"].items():
        root = next(s for s in trace.spans if s[tracer.RID] == rid and s[tracer.PARENT] < 0)
        assert self_s == pytest.approx(root[tracer.END] - root[tracer.START], rel=1e-9)


def test_each_request_is_scaled_by_the_probes_in_and_around_it():
    timeline = speed.Timeline()
    for at, value in enumerate([1.0, 1.0, 2.0, 2.0, 2.0, 2.0]):
        timeline.record(float(at), value)
    # two probes on each side: 1, 1 | 2, 2
    assert timeline.scale(1.5, 1.9) == pytest.approx(1 / 1.5)
    # and every probe inside: 1, 1 | 2, 2, 2 | 2
    assert timeline.scale(1.5, 4.5) == 0.5
    timeline.inside = [(2.0, 2.1), (4.0, 4.2)]
    assert timeline.probe_seconds(1.5, 4.5) == pytest.approx(0.3)
    assert timeline.probe_seconds(2.5, 3.5) == 0.0


def test_timer_probes_sample_inside_a_long_request():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    timeline = speed.Timeline()
    with timeline.sampling():
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    assert len(timeline.inside) >= 3
    assert timeline.probe_seconds(end - 0.4, end) > 0.0
    assert signal.getsignal(signal.SIGALRM) is before


def test_spec_stream_is_a_function_of_the_seed():
    def specs(seed, label, twin=0):
        return [r.argv for r in wl.stream_requests(seed, label, 60, twin)]

    assert specs(7, "run") == specs(7, "run")
    assert specs(7, "run") != specs(8, "run")
    # no spec repeats within a run: warm-up, and each pass's twins, are new
    runs = [specs(7, "warmup")] + [specs(7, "run", twin) for twin in range(3)]
    seen = [tuple(argv[2:6]) for batch in runs for argv in batch]
    assert len(seen) == len(set(seen))


def test_peak_rss_counts_the_programs_own_memory():
    import resource

    import run

    before = run.anon_rss_mb()
    held = b"\x01" * (16 << 20)  # written, so resident
    grown = run.anon_rss_mb() - before
    assert 15.0 < grown < 20.0
    assert run.anon_rss_mb() * 1024 <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    del held


WORKLOADS = {"paper-grids", "renewal-counts", "spec-stream"}
END_TO_END = {"pass_s", "request_p50_ms", "request_p90_ms", "ok_ops_frac",
                    "setup_s", "peak_rss_mb"}
PER_LAYER = (
    [f"moschopoulos.{g}.{k}" for g in ("build_weights", "extend_weights", "eval")
     for k in ("calls", "terms", "self_s")]
    + ["moschopoulos.builds_per_eval"]
    + [f"mathai.{g}.{k}" for g in ("n2", "nn") for k in ("calls", "terms", "self_s")]
    + [f"specfun.kummer.{k}" for k in ("calls", "terms", "self_s")]
    + [f"barnabani.fit.{k}" for k in ("calls", "failures", "self_s")]
    + ["barnabani.fit_reuse_frac", "barnabani.gnbd_pmf.terms", "barnabani.gnbd_pmf.self_s"]
    + [f"barnabani.eval.{k}" for k in ("calls", "terms", "self_s")]
    + ["renewal.query.calls", "renewal.query.self_s", "renewal.cdf_calls",
       "renewal.compositions", "model.canonicalize.calls", "model.canonicalize.self_s",
       "cli.main.self_s", "cli.import_s", "cli.process_s", "trace.overhead_s"]
    + [f"accuracy.{r}.worst_rel_err"
       for r in ("mathai", "moschopoulos", "approx", "proposition", "raw")]
)


def test_benchmark_json_declares_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == WORKLOADS == set(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert set(PER_LAYER) <= {m["name"] for m in spec["per_layer"]}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grids", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
