"""Compare two benchmark result sets (JSON-lines files written by
`run.py --save`).  A report for people, not a CI gate.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

One row per workload and metric: the median and quartiles of each set, the
relative change of the medians, the spread (interquartile range over the
median, the wider of the two sets) and, where both sets ran the same seeds,
the paired wins of NEW over BASE.  End-to-end metrics get a verdict against
the bounds in BENCHMARK.json:

  regression  NEW's median is worse than BASE's by more than the bound
  unresolved  the spread is wider than the bound, and not every NEW run
              reads better than every BASE run
  ok          neither
Per-layer metrics (traced runs) are listed without a verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{(workload, trace): [run records]} of one result set."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], int(rec["trace"])), []).append(rec)
    return runs


def quartiles(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _values(runs, metric) -> list[tuple[int, float]]:
    return [(r["seed"], r["result"]["metrics"][metric]["value"])
            for r in runs if metric in r["result"]["metrics"]]


def _by_seed(pairs) -> dict:
    """seed -> value for the seeds that occur once."""
    seeds = [seed for seed, _ in pairs]
    return {seed: v for seed, v in pairs if seeds.count(seed) == 1}


def compare_metric(base, new, better: str, bound: float | None) -> dict:
    """Row for one metric; base and new are lists of (seed, value)."""
    b, n = [v for _, v in base], [v for _, v in new]
    b_med, b_q1, b_q3 = quartiles(b)
    n_med, n_q1, n_q3 = quartiles(n)
    sign = 1.0 if better == "lower" else -1.0
    change = (n_med - b_med) / b_med if b_med else 0.0
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0, (n_q3 - n_q1) / n_med if n_med else 0.0)
    wins = paired = 0
    b_seed, n_seed = _by_seed(base), _by_seed(new)
    for seed in b_seed.keys() & n_seed.keys():
        paired += 1
        wins += sign * (n_seed[seed] - b_seed[seed]) < 0
    row = {"base": (b_med, b_q1, b_q3), "new": (n_med, n_q1, n_q3), "change": change,
           "spread": spread, "wins": (wins, paired) if paired else None, "verdict": ""}
    if bound is not None:
        all_better = max(sign * v for v in n) < min(sign * v for v in b)
        if spread > bound and not all_better:
            row["verdict"] = "unresolved"
        elif sign * change > bound:
            row["verdict"] = "regression"
        else:
            row["verdict"] = "ok"
    return row


def compare_sets(base: dict, new: dict, bench: dict) -> list[dict]:
    rows = []
    specs = [(0, m) for m in bench["end_to_end"]] + [(1, m) for m in bench["per_layer"]]
    for workload in dict.fromkeys(w for w, _ in [*base, *new]):
        for trace, spec in specs:
            b = _values(base.get((workload, trace), []), spec["name"])
            n = _values(new.get((workload, trace), []), spec["name"])
            if b and n and any(v for _, v in b + n):   # skip layers the workload never reaches
                row = compare_metric(b, n, spec["better"], spec.get("bound"))
                rows.append({"workload": workload, "metric": spec["name"],
                             "unit": spec["unit"], **row})
    return rows


def format_rows(rows) -> str:
    def q(t):
        return f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}]"

    out = [f"{'workload':20} {'metric':42} {'base median [q1, q3]':30} "
           f"{'new median [q1, q3]':30} {'change':>8} {'spread':>7} {'wins':>6}  verdict"]
    for r in rows:
        wins = f"{r['wins'][0]}/{r['wins'][1]}" if r["wins"] else "-"
        out.append(f"{r['workload']:20} {r['metric'] + ' (' + r['unit'] + ')':42} "
                   f"{q(r['base']):30} {q(r['new']):30} {r['change']:+8.1%} "
                   f"{r['spread']:7.1%} {wins:>6}  {r['verdict']}")
    return "\n".join(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    rows = compare_sets(load(argv[0]), load(argv[1]), bench)
    print(format_rows(rows))
    flagged = [r for r in rows if r["verdict"] in ("regression", "unresolved")]
    print(f"{len(rows)} rows, {sum(r['verdict'] == 'regression' for r in flagged)} regressions, "
          f"{sum(r['verdict'] == 'unresolved' for r in flagged)} unresolved")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
