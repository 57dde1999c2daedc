"""Compare two sets of benchmark results from the same host.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (its
``perfbench/results/`` copied aside). For every workload and metric
present in both, prints the median of each side, the change, and, for
end-to-end metrics, whether the change stays within the bound declared
in ``BENCHMARK.json``. Refuses to compare results from different hosts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """(workload, trace) -> metric -> list of values, plus the hosts seen."""
    out: dict = {}
    hosts = set()
    for path in sorted(directory.glob("*-trace[01].json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        meta = doc["meta"]
        hosts.add(json.dumps(meta["host"], sort_keys=True))
        key = (meta["workload"], meta["trace"])
        for name, metric in doc["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return {"metrics": out, "hosts": hosts}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(a)) for a in argv)
    hosts = base["hosts"] | new["hosts"]
    if len(hosts) != 1:
        print("refusing to compare results from different hosts:", file=sys.stderr)
        for host in sorted(hosts):
            print(f"  {host}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for key in sorted(base["metrics"].keys() & new["metrics"].keys()):
        print(f"{key[0]} (trace {key[1]})")
        for name, before in base["metrics"][key].items():
            after = new["metrics"][key].get(name)
            if not after:
                continue
            b, a = statistics.median(before), statistics.median(after)
            change = (a - b) / b if b else float("nan")
            m = declared.get(name, {})
            verdict = ""
            if "bound" in m:
                loss = change if m["better"] == "lower" else -change
                verdict = "worse than bound" if loss > m["bound"] else "within bound"
                worse += loss > m["bound"]
            print(f"  {name:<40} {b:<12.6g} {a:<12.6g} {change:+8.2%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
