"""The benchmark's workloads: one poisson-chaos CLI command each.

Why each workload exists is recorded in WORKLOADS.md.  Replication counts
are fixed here, not by the CLI defaults, so every run of one workload does
the same amount of work per invocation.  The counts for the Monte Carlo
workloads are large enough that the output check's 5-standard-error rule
almost never rejects a correct report (see WORKLOADS.md).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]     # CLI arguments without --seed, --out, --workers
    workers: int
    report: str               # file name the CLI writes under --out
    monte_carlo: bool         # False: one kernel audit, no replications

    def argv(self, master_seed: int, out_dir: str, workers: int | None = None) -> list[str]:
        """CLI argv for one invocation; workers is capped at the core count."""
        w = self.workers if workers is None else workers
        w = max(1, min(w, cores()))
        argv = list(self.args) + ["--out", out_dir]
        if self.monte_carlo:
            argv += ["--seed", str(master_seed), "--workers", str(w)]
        return argv


def cores() -> int:
    """Cores this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


WORKLOADS = {w.name: w for w in (
    Workload("block-n50-w2",
             ("block", "--n", "50", "--reps", "100000"),
             workers=2, report="block_n50.json", monte_carlo=True),
    Workload("ou-quad-T800",
             ("ou", "--theorem", "5", "--lambda", "1", "--T", "800", "--reps", "100"),
             workers=1, report="ou_thm5_T800.json", monte_carlo=True),
    Workload("hazard-egamma-T1e4",
             ("hazard", "--theorem", "7", "--case", "2", "--T", "10000", "--reps", "200"),
             workers=1, report="hazard_thm7_case2_T10000.json", monte_carlo=True),
    Workload("hazard-quad-T400",
             ("hazard", "--theorem", "8", "--variant", "centered", "--T", "400", "--reps", "600"),
             workers=1, report="hazard_thm8_centered_T400.json", monte_carlo=True),
    Workload("criterion-ou-pair",
             ("criterion", "--family", "ou-pair-unit", "--indices", "50,100,200,400,800,1600"),
             workers=1, report="criterion_ou-pair-unit.json", monte_carlo=False),
)}


def master_seed(workload: str, seed: int, k: int) -> int:
    """Master seed of invocation k in a run, a pure function of the
    benchmark's --seed, so the same seed gives the same inputs."""
    digest = hashlib.sha256(f"{workload}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little")
