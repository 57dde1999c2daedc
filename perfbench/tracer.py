"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces every public function of the layer modules,
and ``cli.main``, with a wrapper that records a span: name, start, end,
parent span, request id, and the work count the result reports. The
wrapper is set in every ``gammaconv`` namespace that holds the function,
so by-name imports (``mathai.kummer_1f1_terms``, ``renewal.kummer_1f1``,
``barnabani.fit_gnbd`` as ``_fit_for_spec`` looks it up) are traced too.
``Tracer.restore`` puts the originals back. Spans stay in memory until
``write``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

LAYER_MODULES = ("specfun", "moschopoulos", "barnabani", "mathai", "renewal", "model")

#: function -> (layer group, whether a call of it counts as a group call).
#: Helpers charge their self time to the group without counting calls;
#: anything not listed lands in "other".
GROUPS = {
    "moschopoulos.build_weights": ("moschopoulos.build_weights", True),
    "moschopoulos.extend_weights": ("moschopoulos.extend_weights", True),
    "moschopoulos.density": ("moschopoulos.eval", True),
    "moschopoulos.cdf": ("moschopoulos.eval", True),
    "moschopoulos.gamma_kernel_bound": ("moschopoulos.eval", False),
    "mathai.density2": ("mathai.n2", True),
    "mathai.cdf2": ("mathai.n2", True),
    "mathai.density_n": ("mathai.nn", True),
    "mathai.cdf_n": ("mathai.nn", True),
    "specfun.kummer_1f1": ("specfun.kummer", True),
    "specfun.kummer_1f1_terms": ("specfun.kummer", True),
    "barnabani.fit_gnbd": ("barnabani.fit", True),
    "barnabani.weight_cumulants": ("barnabani.fit", False),
    "barnabani.gnbd_cumulants": ("barnabani.fit", False),
    "barnabani.gnbd_pmf": ("barnabani.gnbd_pmf", True),
    "barnabani.density_approx": ("barnabani.eval", True),
    "barnabani.cdf_approx": ("barnabani.eval", True),
    "renewal.pmf_s2": ("renewal.query", True),
    "renewal.pmf_raw_s2": ("renewal.query", True),
    "renewal.pmf_general": ("renewal.query", True),
    "renewal.pmf_normalization": ("renewal.query", True),
    "renewal.h_diff": ("renewal.query", True),
    "model.canonicalize": ("model.canonicalize", True),
    "cli.main": ("cli.main", True),
}

CDF_FUNCTIONS = {"mathai.cdf2", "mathai.cdf_n", "moschopoulos.cdf", "barnabani.cdf_approx"}

# span fields
NAME, START, END, PARENT, RID, TERMS, ERROR, EXTRA = range(8)


def _terms(name: str, args, result):
    """Work count reported by a call, or None."""
    if name == "specfun.kummer_1f1_terms":
        return result[1]
    if name == "moschopoulos.build_weights":
        return result.upto + 1
    if name == "moschopoulos.extend_weights":
        return result.upto - args[0].upto
    if name == "barnabani.gnbd_pmf":
        return int(getattr(args[1], "size", 1))
    return getattr(result, "terms_used", None)


def _compositions(args) -> int | None:
    """C(n + S - 1, S - 1) for a renewal query (mix, query, ...)."""
    if len(args) < 2 or not hasattr(args[1], "n"):
        return None
    s = len(args[0].weights)
    return math.comb(args[1].n + s - 1, s - 1)


def public_functions() -> dict:
    """Original function object -> traced name."""
    import gammaconv.cli

    out = {gammaconv.cli.main: "cli.main"}
    for short in LAYER_MODULES:
        module = sys.modules[f"gammaconv.{short}"]
        for attr in module.__all__:
            value = getattr(module, attr)
            if callable(value) and not isinstance(value, type):
                out[value] = f"{short}.{attr}"
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.rid: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_renewal = GROUPS.get(name, ("",))[0] == "renewal.query"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rid, None, None,
                    _compositions(args) if is_renewal else None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                span[ERROR] = type(exc).__name__
                stack.pop()
                raise
            span[END] = time.perf_counter()
            stack.pop()
            span[TERMS] = _terms(name, args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> int:
        """Patch every gammaconv namespace; returns the number of bindings."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = public_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("gammaconv"):
                continue
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return len(self._patched)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def leftover_wrappers() -> list[str]:
    """Names still bound to a tracing wrapper in any gammaconv namespace."""
    out = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("gammaconv"):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                out.append(f"{mod_name}.{attr}")
    return out


def summarize(spans: list[list], scale: dict[str, float] | None = None) -> dict:
    """Per-group calls, terms, failures and self time, plus per-request sums.

    ``scale`` maps a request id to the factor that turns its wall seconds
    into reference seconds (see speed.py); self times are scaled by it.

    A call counts once per outermost span of its group (nested calls in
    the same group, such as kummer_1f1 -> kummer_1f1_terms, count once);
    terms come from the outermost span of each reporting function.
    """
    groups: dict[str, dict] = {}
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    per_request: dict[str, float] = {}
    cdf_calls = 0
    compositions = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        group, counted = GROUPS.get(name, ("other", False))
        g = groups.setdefault(group, {"calls": 0, "terms": 0, "failures": 0, "self_s": 0.0})
        self_s = (span[END] - span[START] - child[i]) * (scale or {}).get(span[RID], 1.0)
        g["self_s"] += self_s
        per_request[span[RID]] = per_request.get(span[RID], 0.0) + self_s
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        parent_group = GROUPS.get(parent[NAME], ("other",))[0] if parent else None
        if counted and parent_group != group:
            g["calls"] += 1
            if span[ERROR] == "FitFailureError":
                g["failures"] += 1
            if span[EXTRA] is not None:
                compositions += span[EXTRA]
        if span[TERMS] is not None and (parent is None or parent[NAME] != name):
            g["terms"] += span[TERMS]
        if name in CDF_FUNCTIONS and parent_group == "renewal.query":
            cdf_calls += 1
    return {"groups": groups, "per_request_self_s": per_request,
            "renewal.cdf_calls": cdf_calls, "renewal.compositions": compositions}
