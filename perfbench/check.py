"""Checks every op of a served request against its reference."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from workloads import Request

#: The CLI's exit code for an infeasible approximation fit.
EXIT_FIT_FAILURE = 4
#: How many unexpected failures to describe in the report.
MAX_NOTES = 5


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known_defect: int = 0  # failed ops at a registered known defect
    unexpected: int = 0  # failed ops anywhere else: the run is incorrect
    checked: int = 0
    unchecked: int = 0  # the reference route itself raised
    worst_rel_err: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.unexpected == 0

    def _fail(self, known: bool, count: int, note: str) -> None:
        self.failed += count
        if known:
            self.known_defect += count
        else:
            self.unexpected += count
            if len(self.notes) < MAX_NOTES:
                self.notes.append(note)


def parse_values(req: Request, stdout: str) -> list[float]:
    if req.output == "eval":
        return [float(row["value"]) for row in json.loads(stdout)]
    return [float(row["pmf"]) for row in csv.DictReader(io.StringIO(stdout))]


def relative_error(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref) if ref != 0.0 else abs(got - ref)


def check_request(req: Request, code, stdout: str, tally: Tally) -> None:
    """Count the request's ops; ``code`` is the exit code or a raise message.

    A request that exits non-zero or raises fails all of its ops. That is
    a known defect only for an infeasible-fit exit on a request that
    allows one (approximation requests on spec-stream's random specs).
    """
    tally.attempted += len(req.ops)
    if code != 0:
        known = code == EXIT_FIT_FAILURE and req.fit_may_fail
        tally._fail(known, len(req.ops), f"{req.rid}: exit {code}")
        return
    try:
        values = parse_values(req, stdout)
    except (ValueError, KeyError) as exc:
        tally._fail(False, len(req.ops), f"{req.rid}: unreadable output ({exc})")
        return
    if len(values) != len(req.ops):
        tally._fail(False, len(req.ops),
                    f"{req.rid}: {len(values)} values for {len(req.ops)} ops")
        return
    for index, (op, got) in enumerate(zip(req.ops, values)):
        if op.ref is None:
            continue
        tally.checked += 1
        rel = relative_error(got, op.ref)
        err = rel if op.tol_kind == "rel" else abs(got - op.ref)
        if not math.isnan(rel):
            route = tally.worst_rel_err
            route[op.route] = max(route.get(op.route, 0.0), rel)
        if not err <= op.tol:  # NaN fails too
            tally._fail(op.known_defect, 1,
                        f"{req.rid}[{index}]: got {got!r}, reference {op.ref!r}")
