"""Generate the benchmark's committed inputs and references.

    python3 perfbench/gen_inputs.py            # rewrites perfbench/data/inputs.json

Inputs: the paper's 21 gamma-convolution settings (Table 1: n = 2, Table 2:
n = 3) with their 100-point bulk grids drawn from the package's default
seed, and the renewal queries of the S = 2 and S = 3 tables (t = 10).

References are computed with mpmath at 40 significant digits by methods
that share no code with the package's float series:

* density/CDF: the series weights are the law of a sum of independent
  negative binomials (size a_i, success probability b_1/b_i), built here
  by direct convolution of the NB pmfs; the gamma-kernel mixture is then
  summed with a kernel recurrence (density) or a downward incomplete-gamma
  recurrence of non-negative terms (CDF).
* renewal pmf: the count process of a renewal process with
  mixture-of-exponential holding times is a Markovian arrival process;
  P(N(t) = n) is summed by uniformization, every term non-negative.

The only package code used is ``gammaconv.bench.bulk_grid`` (random draws
that place the grid points) and, for the known-defect register, the
approximation under test itself (see ``known_defects``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "data" / "inputs.json"

DPS = 40
GRID_SEED = 20260826
GRID_POINTS = 100
#: Relative cut for the NB weight tails; far below any checked tolerance.
WEIGHT_CUT = mp.mpf("1e-45")

TABLE1 = [
    (alpha, scales)
    for alpha in (0.2, 2.0, 20.0)
    for scales in ((0.4, 0.3), (4.0, 0.3), (4.0, 3.0))
]
TABLE2 = [
    (alpha, scales)
    for alpha in (0.2, 2.0, 20.0)
    for scales in ((0.4, 0.3, 0.2), (4.0, 0.3, 0.2), (4.0, 3.0, 0.2), (4.0, 3.0, 2.0))
]
RENEWAL_T = 10.0
RENEW2 = [
    ((0.4, 0.3), (27, 32, 40)),
    ((4.0, 0.3), (10, 18, 30)),
    ((4.0, 3.0), (2, 3, 5)),
]
RENEW3 = [
    ((0.4, 0.3, 0.2), (36, 42, 51)),
    ((4.0, 0.3, 0.2), (10, 19, 35)),
    ((4.0, 3.0, 0.2), (5, 10, 19)),
    ((4.0, 3.0, 2.0), (2, 4, 7)),
]
RENEW2_WEIGHTS = (0.5, 0.5)
RENEW3_WEIGHTS = (0.1, 0.2, 0.7)

#: Criterion 7's absolute envelope for the approximation's density and CDF.
APPROX_ABS_TOL = 1e-2


def grid_id(alpha: float, scales) -> str:
    return f"a{alpha:g}-b{'_'.join(f'{b:g}' for b in scales)}"


def nb_pmf(a, q):
    """NB(size a, success prob q) masses until past the mode and below the cut."""
    a, q = mp.mpf(a), mp.mpf(q)
    term = q**a
    out = [term]
    peak = term
    k = 0
    while True:
        term = term * (a + k) / (k + 1) * (1 - q)
        k += 1
        out.append(term)
        peak = max(peak, term)
        if term < WEIGHT_CUT * peak and term < out[-2]:
            return out


def convolve(a, b):
    out = []
    for r in range(len(a) + len(b) - 1):
        lo = max(0, r - len(b) + 1)
        hi = min(r, len(a) - 1)
        out.append(mp.fdot(a[lo : hi + 1], b[r - hi : r - lo + 1][::-1]))
    return out


def weight_law(shapes, scales):
    """Masses of K = sum_{i>=2} NB(a_i, b_1/b_i), scales sorted ascending."""
    pairs = sorted(zip(shapes, scales), key=lambda p: p[1])
    b1 = pairs[0][1]
    law = [mp.mpf(1)]
    for a, b in pairs[1:]:
        if not b > b1:
            raise ValueError("reference weights need distinct scales")
        law = convolve(law, nb_pmf(a, mp.mpf(b1) / mp.mpf(b)))
    return law, mp.mpf(sum(shapes)), mp.mpf(b1)


def density_ref(law, rho, b1, x):
    x = mp.mpf(x)
    g = mp.exp((rho - 1) * mp.log(x) - x / b1 - mp.loggamma(rho) - rho * mp.log(b1))
    kernel = []
    for k in range(len(law)):
        kernel.append(g)
        g = g * x / (b1 * (rho + k))
    return mp.fdot(law, kernel)


def cdf_ref(law, rho, b1, y):
    u = mp.mpf(y) / b1
    top = len(law) - 1
    p = mp.gammainc(rho + top, 0, u, regularized=True)
    # h_k = u^(rho+k) e^-u / Gamma(rho+k+1), so P_k = P_{k+1} + h_k
    h = mp.exp((rho + top - 1) * mp.log(u) - u - mp.loggamma(rho + top))
    probs = [p]
    for k in range(top - 1, -1, -1):
        p = p + h
        probs.append(p)
        h = h * (rho + k) / u
    probs.reverse()
    return mp.fdot(law, probs)


def renewal_ref(weights, scales, t, n_max):
    """P(N(t) = n), n = 0..n_max, by uniformization of the phase process."""
    w = [mp.mpf(x) for x in weights]
    rates = [1 / mp.mpf(b) for b in scales]
    lam = max(rates)
    stay = [1 - r / lam for r in rates]
    fire = [r / lam for r in rates]
    lt = lam * mp.mpf(t)
    v = [[wj] + [mp.mpf(0)] * n_max for wj in w]  # v[phase][count]
    pois = mp.exp(-lt)
    pmf = [mp.mpf(0)] * (n_max + 1)
    m = 0
    while True:
        for n in range(n_max + 1):
            pmf[n] += pois * mp.fsum(v[j][n] for j in range(len(w)))
        if m > lt and pois < mp.mpf("1e-50"):
            return pmf
        fired = [mp.fsum(v[i][n] * fire[i] for i in range(len(w))) for n in range(n_max + 1)]
        v = [
            [v[j][n] * stay[j] + (w[j] * fired[n - 1] if n else 0) for n in range(n_max + 1)]
            for j in range(len(w))
        ]
        m += 1
        pois = pois * lt / m


def known_defects(grids) -> list[dict]:
    """Approximation points outside criterion 7's absolute envelope.

    This is the one place the generator runs the program under test: it
    records, against the mpmath references, which committed approx ops
    miss the envelope with the code as generated. The benchmark counts
    these ops as failed; a miss at any other point makes a run incorrect.
    """
    from gammaconv import barnabani
    from gammaconv.model import ConvolutionSpec

    out = []
    for grid in grids:
        if len(grid["scales"]) < 3:
            continue
        spec = ConvolutionSpec.of(*((grid["alpha"], b) for b in grid["scales"]))
        fns = {"density": barnabani.density_approx, "cdf": barnabani.cdf_approx}
        for kind, fn in fns.items():
            for i, x in enumerate(grid["points"]):
                got = fn(spec, x).value
                if abs(got - float(grid[kind][i])) > APPROX_ABS_TOL:
                    out.append({"grid": grid["id"], "kind": kind, "method": "approx", "index": i})
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from gammaconv.bench import bulk_grid, spec_for

    mp.mp.dps = DPS
    grids = []
    for table, settings in ((1, TABLE1), (2, TABLE2)):
        for alpha, scales in settings:
            start = time.perf_counter()
            points = [float(x) for x in bulk_grid(spec_for(alpha, scales), seed=GRID_SEED)]
            law, rho, b1 = weight_law([alpha] * len(scales), scales)
            grids.append(
                {
                    "id": grid_id(alpha, scales),
                    "table": table,
                    "alpha": alpha,
                    "scales": list(scales),
                    "points": points,
                    "density": [mp.nstr(density_ref(law, rho, b1, x), 20) for x in points],
                    "cdf": [mp.nstr(cdf_ref(law, rho, b1, x), 20) for x in points],
                }
            )
            print(f"grid {grids[-1]['id']}: K={len(law)} "
                  f"{time.perf_counter() - start:.1f}s", file=sys.stderr)
    renewals = []
    for weights, settings in ((RENEW2_WEIGHTS, RENEW2), (RENEW3_WEIGHTS, RENEW3)):
        for scales, ns in settings:
            pmf = renewal_ref(weights, scales, RENEWAL_T, max(ns))
            renewals.append(
                {
                    "id": f"S{len(scales)}-b{'_'.join(f'{b:g}' for b in scales)}",
                    "weights": list(weights),
                    "scales": list(scales),
                    "t": RENEWAL_T,
                    "n": list(ns),
                    "pmf": [mp.nstr(pmf[n], 20) for n in ns],
                }
            )
    doc = {
        "about": "Generated by perfbench/gen_inputs.py; references are mpmath "
                 f"values at {DPS} digits, printed to 20.",
        "grid_seed": GRID_SEED,
        "grids": grids,
        "renewal": renewals,
        "known_defects": known_defects(grids),
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}: {len(grids)} grids, {len(renewals)} renewal "
          f"settings, {len(doc['known_defects'])} known defects", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
