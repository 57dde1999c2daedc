"""The benchmark's three workloads, built from committed inputs and the seed.

A request is one ``gammaconv.cli.main(argv)`` call. An op is one evaluated point or one renewal ``n``; each op
carries the reference it is checked against, or none when the reference
is computed after the pass (``spec-stream``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("paper-grids", "renewal-counts", "spec-stream")

INPUTS = Path(__file__).resolve().parent / "data" / "inputs.json"

#: Exact routes fail an op beyond this relative error (criteria 1 and 5).
EXACT_REL_TOL = 1e-10
#: Criterion 7's envelopes for the approximation.
APPROX_ABS_TOL = 1e-2
APPROX_RENEWAL_REL_TOL = 2e-2

#: spec-stream: requests per pass and how they are drawn.
STREAM_REQUESTS = 300
STREAM_WARMUP_REQUESTS = 24
STREAM_SHAPE_RANGE = (0.2, 20.0)
STREAM_MAX_SCALE_RATIO = 1e2
STREAM_MIN_SCALE_RANGE = (0.3, 3.0)
#: One n >= 3 request in STREAM_APPROX_EVERY uses the approximation.
STREAM_APPROX_EVERY = 4
#: Pass p serves twins of the run's specs with every shape scaled by
#: (1 + p * STREAM_TWIN_STEP): new specs to every cache, the same work.
STREAM_TWIN_STEP = 1e-6

@dataclass
class Op:
    """One checked value: reference, tolerance and accuracy route."""

    ref: float | None
    tol_kind: str  # "rel" or "abs"
    tol: float
    route: str  # mathai | moschopoulos | approx | proposition | raw
    known_defect: bool = False


@dataclass
class Request:
    rid: str
    argv: list[str]
    ops: list[Op]
    output: str  # "eval" (JSON rows) or "renewal" (CSV)
    # spec-stream only: what the after-pass reference needs.
    stream: dict | None = field(default=None)
    # spec-stream approximation requests: the GNBD fit may be infeasible (exit 4).
    fit_may_fail: bool = False


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def load_inputs() -> dict:
    return json.loads(INPUTS.read_text(encoding="utf-8"))


def _route_tolerance(method: str, renewal: bool) -> tuple[str, float]:
    if method != "approx":
        return "rel", EXACT_REL_TOL
    return ("rel", APPROX_RENEWAL_REL_TOL) if renewal else ("abs", APPROX_ABS_TOL)


def paper_grid_requests(inputs: dict) -> list[Request]:
    """Every method the paper compares, on each of the 21 bulk grids."""
    defects = {
        (d["grid"], d["kind"], d["method"], d["index"]) for d in inputs["known_defects"]
    }
    out = []
    for grid in inputs["grids"]:
        n = len(grid["scales"])
        methods = ("mathai", "moschopoulos") + (("approx",) if n >= 3 else ())
        for method in methods:
            tol_kind, tol = _route_tolerance(method, renewal=False)
            for kind in ("density", "cdf"):
                ops = [
                    Op(float(ref), tol_kind, tol, method,
                       (grid["id"], kind, method, i) in defects)
                    for i, ref in enumerate(grid[kind])
                ]
                argv = [
                    "eval", kind,
                    "--shape", _csv([grid["alpha"]] * n),
                    "--scale", _csv(grid["scales"]),
                    "--at", _csv(grid["points"]),
                    "--method", method,
                    "--format", "json",
                ]
                out.append(Request(f"eval-{kind}-{method}-{grid['id']}", argv, ops, "eval"))
    return out


def renewal_requests(inputs: dict) -> list[Request]:
    """S = 2 through all three exact routes, S = 3 through proposition."""
    out = []
    for setting in inputs["renewal"]:
        s = len(setting["scales"])
        methods = ("proposition", "raw-mathai", "raw-moschopoulos") if s == 2 else ("proposition",)
        for method in methods:
            route = "proposition" if method == "proposition" else "raw"
            tol_kind, tol = _route_tolerance(method, renewal=True)
            for n, ref in zip(setting["n"], setting["pmf"]):
                argv = [
                    "renewal",
                    "--weights", _csv(setting["weights"]),
                    "--scales", _csv(setting["scales"]),
                    "--t", repr(float(setting["t"])),
                    "--n", str(n),
                    "--method", method,
                ]
                rid = f"renewal-{method}-{setting['id']}-n{n}"
                out.append(Request(rid, argv, [Op(float(ref), tol_kind, tol, route)], "renewal"))
    return out


def shuffled(requests: list[Request], seed: int, pass_index: int) -> list[Request]:
    order = list(requests)
    random.Random(f"{seed}:order:{pass_index}").shuffle(order)
    return order


#: Spec dimensions per request: scale ratio, five shapes, minimum scale,
#: three inner scales.
_DIMS = 10


def _design(m: int) -> list[list[int]]:
    """Fixed stratum of each of m requests in each dimension (a Latin hypercube)."""
    rng = random.Random(f"spec-stream design {m}")
    return [rng.sample(range(m), m) for _ in range(_DIMS)]


def stream_requests(seed: int, label: str, count: int, twin: int = 0) -> list[Request]:
    """A batch of random specs, one request each.

    Requests cycle through n = 2..5. Within each n, every spec dimension
    (scale ratio, shapes, minimum scale, inner scales) is split into
    equal strata, and each request draws uniformly inside a fixed stratum
    per dimension (a Latin hypercube whose strata do not depend on the
    seed): every seed gives different specs with the same spread of cost.
    ``twin`` > 0 scales every shape by (1 + twin * STREAM_TWIN_STEP), so
    each pass of a run sends specs no earlier pass sent, at the same cost.
    """
    rng = random.Random(f"{seed}:stream:{label}")
    per_n = -(-count // 4)
    strata = _design(per_n)
    lo_a, hi_a = (math.log(v) for v in STREAM_SHAPE_RANGE)
    lo_b, hi_b = (math.log(v) for v in STREAM_MIN_SCALE_RANGE)
    out = []
    n_ge3 = 0
    for i in range(count):
        n = 2 + i % 4
        j = i // 4
        u = [(strata[d][j] + rng.random()) / per_n for d in range(_DIMS)]
        log_ratio = u[0] * math.log(STREAM_MAX_SCALE_RATIO)
        b_min = math.exp(lo_b + (hi_b - lo_b) * u[6])
        inner = sorted(u[7 : 7 + n - 2])
        scales = [b_min] + [b_min * math.exp(v * log_ratio) for v in inner]
        scales.append(b_min * math.exp(log_ratio))
        shapes = [math.exp(lo_a + (hi_a - lo_a) * u[1 + c]) * (1.0 + twin * STREAM_TWIN_STEP)
                  for c in range(n)]
        mean = sum(a * b for a, b in zip(shapes, scales))
        sd = math.sqrt(sum(a * b * b for a, b in zip(shapes, scales)))
        lo_x, hi_x = max(mean - 3.0 * sd, 1e-3 * mean), mean + 3.0 * sd
        points = sorted(rng.uniform(lo_x, hi_x) for _ in range(1 + i % 10))
        method = "auto"
        if n >= 3:
            if n_ge3 % STREAM_APPROX_EVERY == 0:
                method = "approx"
            n_ge3 += 1
        kind = "density" if (i // 4) % 2 == 0 else "cdf"
        route = method if method == "approx" else ("mathai" if n == 2 else "moschopoulos")
        tol_kind, tol = _route_tolerance(method, renewal=False)
        argv = [
            "eval", kind,
            "--shape", _csv(shapes),
            "--scale", _csv(scales),
            "--at", _csv(points),
            "--method", method,
            "--format", "json",
        ]
        ops = [Op(None, tol_kind, tol, route) for _ in points]
        stream = {"kind": kind, "shapes": shapes, "scales": scales, "points": points,
                  "route": route, "check": 0}
        out.append(Request(f"stream-{label}-{i}@{twin}", argv, ops, "eval", stream,
                           fit_may_fail=method == "approx"))
    return out


def stream_reference(req: Request) -> float | None:
    """The other exact route at the request's checked point, or None if it raises.

    auto/moschopoulos requests are checked against mathai, approx and
    n = 2 auto (which is mathai) against exact moschopoulos.
    """
    from gammaconv import GammaConvError, mathai, moschopoulos
    from gammaconv.model import ConvolutionSpec

    info = req.stream
    spec = ConvolutionSpec.of(*zip(info["shapes"], info["scales"]))
    x = info["points"][info["check"]]
    density = info["kind"] == "density"
    try:
        if info["route"] == "moschopoulos":
            fn = mathai.density_n if density else mathai.cdf_n
        else:
            fn = moschopoulos.density if density else moschopoulos.cdf
        return fn(spec, x).value
    except (GammaConvError, ArithmeticError):
        return None
