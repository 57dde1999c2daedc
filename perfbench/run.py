"""gammaconv benchmark: three workloads through the user-facing CLI.

    python3 perfbench/run.py --workload paper-grids --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --all            # every workload, every metric with its unit

Run from the root of a source tree (``src/gammaconv`` next to
``perfbench``). With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` one untraced and one
traced pass are made and it holds the per-layer metrics. Times are in
reference seconds: wall times scaled by speed probes taken in and
around each request (see ``speed.py``). Metric names and
units come from ``BENCHMARK.json``. Results, run metadata and spans are
also written under ``perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads as wl
from check import Tally, check_request
from tracer import Tracer, leftover_wrappers, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Fresh processes timing set-up, besides the serving process itself.
SETUP_PROBES = 2
#: Fresh CLI processes timed by traced runs (cli.process_s), running a
#: cheap request whose time is mostly start-up and imports.
PROCESS_PROBES = 3
PROCESS_PROBE_REQUEST = "eval-density-mathai-a2-b0.4_0.3"
#: Seconds of ``--seconds`` that one pass counts for, per workload: a run
#: makes round(--seconds / PASS_S) passes (at 12 s: 2, 3 and 3). The
#: count is fixed, so it does not depend on the speed of the code under
#: test. Passes take about 8.5, 7.5 and 2.4 reference seconds.
PASS_S = {"paper-grids": 6.0, "renewal-counts": 4.0, "spec-stream": 4.0}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------- requests


def first_point(req: wl.Request) -> wl.Request:
    """The request cut to its first point (paper-grids warm-up)."""
    argv = list(req.argv)
    at = argv.index("--at") + 1
    argv[at] = argv[at].split(",")[0]
    return wl.Request(req.rid + "-warmup", argv, req.ops[:1], req.output)


class Plan:
    """Which requests a workload sends, pass by pass."""

    def __init__(self, workload: str, seed: int, inputs: dict):
        self.seed = seed
        if workload == "paper-grids":
            self.base = wl.paper_grid_requests(inputs)
            self.warmup = [first_point(r) for r in self.base]
        elif workload == "renewal-counts":
            self.base = wl.renewal_requests(inputs)
            cheapest = {}  # smallest n per (route, S)
            for req in self.base:
                key = (req.argv[-1], req.argv[2].count(","))
                n = int(req.argv[req.argv.index("--n") + 1])
                if key not in cheapest or n < cheapest[key][0]:
                    cheapest[key] = (n, req)
            self.warmup = [req for _, req in cheapest.values()]
        else:
            self.base = None
            self.warmup = wl.stream_requests(seed, "warmup", wl.STREAM_WARMUP_REQUESTS)

    def requests(self, pass_index: int) -> list[wl.Request]:
        if self.base is None:
            return wl.stream_requests(self.seed, "run", wl.STREAM_REQUESTS, twin=pass_index)
        return wl.shuffled(self.base, self.seed, pass_index)


def serve_inprocess(cli, req: wl.Request):
    """One cli.main call; returns (exit code or raise text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(req.argv)
        except Exception as exc:  # a raise fails every op of the request
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def anon_rss_mb() -> float:
    """The process's anonymous resident memory now (RssAnon), in MiB.

    File-backed pages (the interpreter and the numpy/scipy libraries,
    about 35 MiB) are left out: how many of them are resident depends on
    the host's page cache, not on the program.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no RssAnon in /proc/self/status")


def cold_process_seconds(req: wl.Request) -> float:
    """Wall seconds of one fresh ``python -m gammaconv.cli`` process serving `req`."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "gammaconv.cli", *req.argv], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


# ------------------------------------------------------------------- set-up


def set_up(workload: str, seed: int):
    """Import the CLI, load inputs and references, serve a warm-up pass.

    Returns wall seconds; ``timed_setups`` scales them.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gammaconv.cli as cli

    import_s = time.perf_counter() - start
    plan = Plan(workload, seed, wl.load_inputs())
    for req in plan.warmup:
        serve_inprocess(cli, req)
    return cli, plan, {"wall_s": time.perf_counter() - start, "import_wall_s": import_s}


def probe_setup(workload: str, seed: int) -> dict:
    """Set-up timing of a fresh process running the same set-up."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_setups(workload: str, seed: int):
    """Set up here and in SETUP_PROBES fresh processes, with cold probes
    between them; each set-up is scaled by the probes around it."""
    timeline = speed.Timeline(speed.cold_probe)
    timeline.probe()
    timings = []
    for index in range(1 + SETUP_PROBES):
        start = time.perf_counter()
        if index == 0:
            cli, plan, timing = set_up(workload, seed)
        else:
            timing = probe_setup(workload, seed)
        timing["interval"] = (start, time.perf_counter())
        timings.append(timing)
        timeline.probe()
    for timing in timings:
        factor = timeline.scale(*timing.pop("interval"))
        timing["setup_s"] = timing["wall_s"] * factor
        timing["import_s"] = timing["import_wall_s"] * factor
    return cli, plan, timings


# ---------------------------------------------------------------- measuring


def fill_stream_references(req: wl.Request, code, tally: Tally) -> None:
    """spec-stream: the other exact route at the checked point (untimed)."""
    if req.stream is None or code != 0:
        return
    ref = wl.stream_reference(req)
    if ref is None:
        tally.unchecked += 1
    req.ops[req.stream["check"]].ref = ref


class Run:
    """Serves passes, timing each request in reference seconds.

    A speed probe (speed.py) precedes the first request of a pass and
    follows every request; untraced passes also probe inside requests
    from a timer. Each request's wall time, less the probes inside it, is
    scaled by the probes in and around it (speed.Timeline).
    """

    def __init__(self, cli, plan: Plan):
        self.cli = cli
        self.plan = plan
        self.tally = Tally()
        self.pass_s = {False: [], True: []}  # traced? -> reference seconds of each pass
        self.pass_wall_s = {False: [], True: []}  # the same, unscaled
        self.samples: dict[str, list[float]] = {}  # request id -> untraced reference seconds
        self.request_s: dict[str, float] = {}  # traced request (per pass) -> reference seconds
        self.request_scale: dict[str, float] = {}  # traced request -> its scale
        self.probes_inside = 0  # timer probes taken inside requests
        self.peak_rss_mb = anon_rss_mb()  # after set-up, then after each request
        self.tracer = Tracer()

    def one_pass(self, index: int, traced: bool) -> None:
        requests = self.plan.requests(index)
        served = []
        timeline = speed.Timeline()
        timeline.probe()
        # timer probes would land inside traced spans
        sampling = contextlib.nullcontext() if traced else timeline.sampling()
        if traced:
            self.tracer.install()
        try:
            with sampling:
                for req in requests:
                    rid = f"p{index}:{req.rid}"
                    self.tracer.rid = rid
                    start = time.perf_counter()
                    code, stdout = serve_inprocess(self.cli, req)
                    end = time.perf_counter()
                    self.peak_rss_mb = max(self.peak_rss_mb, anon_rss_mb())
                    served.append((rid, req, start, end, code, stdout))
                    timeline.probe()
        finally:
            self.tracer.restore()
        pass_wall = pass_s = 0.0
        for rid, req, start, end, code, stdout in served:
            seconds = end - start - timeline.probe_seconds(start, end)
            factor = timeline.scale(start, end)
            pass_wall += seconds
            pass_s += seconds * factor
            if traced:
                self.request_s[rid] = seconds * factor
                self.request_scale[rid] = factor
            else:  # spec-stream twins share their base id
                self.samples.setdefault(req.rid.split("@")[0], []).append(seconds * factor)
            fill_stream_references(req, code, self.tally)
            check_request(req, code, stdout, self.tally)
        self.pass_wall_s[traced].append(pass_wall)
        self.pass_s[traced].append(pass_s)
        self.probes_inside += len(timeline.inside)

    @property
    def latencies(self) -> list[float]:
        """Every untraced request's time."""
        return [took for v in self.samples.values() for took in v]

    @property
    def request_medians(self) -> list[float]:
        """Each request's median time over the untraced passes."""
        return [statistics.median(v) for v in self.samples.values()]

    def measure(self, passes: int, trace: bool) -> None:
        """`passes` untraced passes; with `trace`, one untraced and one traced."""
        if trace:
            self.one_pass(0, traced=False)
            self.one_pass(1, traced=True)
            return
        for index in range(passes):
            self.one_pass(index, traced=False)


def percentiles(values: list[float], probs: tuple[float, ...]) -> list[float]:
    """Harrell-Davis quantile estimates: a Beta-weighted mean of all order
    statistics. The fixed workloads' request costs have gaps (p90 on
    paper-grids falls between ~150 ms and ~250 ms requests, p50 on
    renewal-counts between ~9 ms and ~14 ms), where a single order
    statistic jumps with small timing noise."""
    from scipy.stats.mstats import hdquantiles

    return [float(q) for q in hdquantiles(values, prob=list(probs))]


def end_to_end(run: Run, setups: list[float]) -> dict:
    t = run.tally
    p50, p90 = percentiles(run.request_medians, (0.5, 0.9))
    return {
        "pass_s": statistics.median(run.pass_s[False]),
        "request_p50_ms": 1e3 * p50,
        "request_p90_ms": 1e3 * p90,
        "ok_ops_frac": (t.attempted - t.failed) / t.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run, import_s: list[float], process_s: list[float]) -> dict:
    traced = len(run.pass_s[True])
    summary = summarize(run.tracer.spans, run.request_scale)
    groups = summary["groups"]

    def g(name: str, key: str) -> float:
        return groups.get(name, {}).get(key, 0) / traced

    out = {}
    for name in ("moschopoulos.build_weights", "moschopoulos.extend_weights",
                 "moschopoulos.eval", "mathai.n2", "mathai.nn", "specfun.kummer",
                 "barnabani.eval"):
        for key in ("calls", "terms", "self_s"):
            out[f"{name}.{key}"] = g(name, key)
    for key in ("calls", "failures", "self_s"):
        out[f"barnabani.fit.{key}"] = g("barnabani.fit", key)
    for key in ("terms", "self_s"):
        out[f"barnabani.gnbd_pmf.{key}"] = g("barnabani.gnbd_pmf", key)
    for name in ("renewal.query", "model.canonicalize"):
        for key in ("calls", "self_s"):
            out[f"{name}.{key}"] = g(name, key)
    out["cli.main.self_s"] = g("cli.main", "self_s")
    out["other.self_s"] = g("other", "self_s")
    evals = out["moschopoulos.eval.calls"]
    out["moschopoulos.builds_per_eval"] = (
        out["moschopoulos.build_weights.calls"] / evals if evals else 0.0)
    approx = out["barnabani.eval.calls"]
    out["barnabani.fit_reuse_frac"] = 1.0 - out["barnabani.fit.calls"] / approx if approx else 0.0
    out["renewal.cdf_calls"] = summary["renewal.cdf_calls"] / traced
    out["renewal.compositions"] = summary["renewal.compositions"] / traced
    out["cli.import_s"] = statistics.median(import_s)
    out["cli.process_s"] = statistics.median(process_s)
    for route in ("mathai", "moschopoulos", "approx", "proposition", "raw"):
        out[f"accuracy.{route}.worst_rel_err"] = run.tally.worst_rel_err.get(route, 0.0)
    out["trace.untraced_pass_s"] = statistics.median(run.pass_s[False])
    out["trace.traced_pass_s"] = statistics.median(run.pass_s[True])
    out["trace.overhead_s"] = out["trace.traced_pass_s"] - out["trace.untraced_pass_s"]
    # request time not covered by the layers' self times (all in reference seconds)
    gaps = [took - summary["per_request_self_s"].get(rid, 0.0)
            for rid, took in run.request_s.items()]
    out["trace.self_gap_max_ms"] = 1e3 * max(gaps)
    out["trace.spans"] = len(run.tracer.spans) / traced
    return out


# ----------------------------------------------------------------- metadata


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "host": {
            "cpu": cpu,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


# --------------------------------------------------------------------- main


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    declared = declared_metrics(trace)
    cli, plan, timings = timed_setups(workload, seed)
    setups = [x["setup_s"] for x in timings]
    import_s = [x["import_s"] for x in timings]

    run = Run(cli, plan)
    run.measure(pass_count(workload, seconds), bool(trace))
    leftovers = leftover_wrappers()

    gap_note = None
    if trace:
        probe = next(r for r in wl.paper_grid_requests(wl.load_inputs())
                     if r.rid == PROCESS_PROBE_REQUEST)
        process_s = []
        for _ in range(PROCESS_PROBES):
            timeline = speed.Timeline(speed.cold_probe)
            timeline.probe()
            start = time.perf_counter()
            seconds = cold_process_seconds(probe)
            timeline.probe()
            process_s.append(seconds * timeline.scale(start, time.perf_counter()))
        values = per_layer(run, import_s, process_s)
        gap_ms, overhead_s = values["trace.self_gap_max_ms"], values["trace.overhead_s"]
        if overhead_s <= 0:
            gap_note = (f"tracing overhead not resolved (traced - untraced pass = "
                        f"{overhead_s:.3f} s); largest self-time gap {gap_ms:.3f} ms not compared")
        elif gap_ms > 1e3 * overhead_s:
            gap_note = (f"a request's time exceeds its layers' self times by {gap_ms:.3f} ms, "
                        f"more than the tracing overhead of {overhead_s:.3f} s")
    else:
        values = end_to_end(run, setups)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics not computed: {missing}")

    t = run.tally
    meta = metadata(workload, seed, seconds, trace)
    counts = {
        "attempted": t.attempted, "failed": t.failed, "known_defect": t.known_defect,
        "unexpected": t.unexpected, "checked": t.checked, "unchecked": t.unchecked,
        "failed_ops_frac": t.failed / t.attempted, "requests": len(run.latencies),
        "passes": len(run.pass_s[False]), "traced_passes": len(run.pass_s[True]),
        "probes_inside_requests": run.probes_inside,
        "wrappers_left": leftovers,
    }
    if trace:  # None when the overhead reads <= 0 and cannot bound the gap
        counts["self_gap_within_overhead"] = (
            None if values["trace.overhead_s"] <= 0 else gap_note is None)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "counts": counts, "metrics": metrics,
                   "pass_s": run.pass_s[False], "traced_pass_s": run.pass_s[True],
                   "pass_wall_s": run.pass_wall_s[False],
                   "traced_pass_wall_s": run.pass_wall_s[True],
                   "setup_s": setups, "setup_wall_s": [x["wall_s"] for x in timings],
                   "notes": t.notes, "request_s": run.samples}, handle, indent=1)
    if trace:
        run.tracer.write(RESULTS / f"{stem}.spans.jsonl")

    for note in t.notes:
        print(f"unexpected failure: {note}")
    if gap_note:
        print(f"note: {gap_note}")
    print(json.dumps({"meta": meta, "counts": counts}))
    result = {
        "correct": t.correct and not leftovers,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    status = 0
    for workload in wl.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}")
            status = 1
            continue
        lines = done.stdout.strip().splitlines()
        counts = json.loads(lines[-2])["counts"]
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} (known defects {counts['known_defect']}, "
              f"unchecked {counts['unchecked']}) requests={counts['requests']}")
        print(f"  {'failed_ops_frac':<40} {counts['failed_ops_frac']:<14.6g} ratio")
        for name, metric in result["metrics"].items():
            print(f"  {name:<40} {metric['value']:<14.6g} {metric['unit']}")
        status = status or (0 if result["correct"] else 1)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gammaconv" / "cli.py").is_file():
        return fail(f"no gammaconv source tree at {SRC}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json missing")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.setup_probe:
        _, _, timing = set_up(args.workload, args.seed)
        print(json.dumps(timing))
        return 0
    if args.all:
        return run_all(args.seed, seconds, args.trace)
    if args.workload is None:
        return fail("--workload or --all is required")
    # The build: byte-compile the package so imports time the same on every run.
    if not compileall.compile_dir(str(SRC / "gammaconv"), quiet=1):
        return fail("byte-compiling src/gammaconv failed")
    return run_workload(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
