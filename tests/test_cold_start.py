"""The command line starts without scipy, the process pool or the config
parser.

scipy.special and scipy.integrate are imported by the functions that call
them (the non-homogeneous controls' masses and moments, the generalized-Gamma
moments and the non-homogeneous Campbell integrals), so the CLI import and the
subcommands that never reach those functions do not load scipy at all; the
homogeneous case-1 Campbell integrals are closed forms.  They do not load
numpy.ma either, which np.unique imports on first use, nor numpy.polynomial,
which only the tests' panel quadrature needs.  The process pool
(concurrent.futures.process, multiprocessing) is imported only by runs with
more than one worker, and configparser only by runs that read a config file.
The extended-Gamma sampler builds its table with numpy alone, so replications
of hazard case 2 load no scipy either; only its Campbell integrals do.
"""

import ast
import subprocess
import sys
from pathlib import Path

import poisson_chaos

SRC = str(Path(poisson_chaos.__file__).resolve().parents[1])

SCRIPT = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import poisson_chaos.cli as cli

DEFERRED = ("scipy", "numpy.ma", "numpy.polynomial", "multiprocessing",
            "concurrent.futures.process", "configparser")

def loaded():
    return sorted(m for m in sys.modules
                  if m in DEFERRED or m.startswith(("scipy.", "multiprocessing.")))

print("import", "-", loaded())
runs = {
    "criterion": ["criterion", "--family", "ou-pair-unit", "--indices", "50,100"],
    "ou": ["ou", "--theorem", "5", "--T", "20", "--reps", "100", "--seed", "1"],
    "ou-thm4": ["ou", "--theorem", "4", "--T", "20", "--reps", "100", "--seed", "1"],
    "ou-thm6": ["ou", "--theorem", "6", "--T", "20", "--reps", "100", "--seed", "1"],
    "hazard": ["hazard", "--theorem", "8", "--T", "20", "--reps", "100", "--seed", "1"],
    "hazard-case1": ["hazard", "--theorem", "7", "--case", "1", "--T", "20", "--reps", "100",
                     "--seed", "1"],
    "ou-w2": ["ou", "--theorem", "5", "--T", "20", "--reps", "100", "--seed", "1",
              "--workers", "2"],
}
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv + ["--out", sys.argv[2]])
    print(name, status, loaded())
"""


def test_cli_paths_do_not_load_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, SRC, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(" ", 2) for line in proc.stdout.splitlines()]
    assert [r[0] for r in rows] == ["import", "criterion", "ou", "ou-thm4", "ou-thm6", "hazard",
                                    "hazard-case1", "ou-w2"], proc.stdout
    # every --workers 1 run leaves the deferred modules unloaded
    assert all(r[2] == "[]" for r in rows[:-1]), proc.stdout
    assert {r[1] for r in rows[1:]} <= {"0", "1"}   # 1: a verdict failed, not a crash
    # two workers load the pool, and still no scipy or config parser
    pool = ast.literal_eval(rows[-1][2])
    assert {"concurrent.futures.process", "multiprocessing"} <= set(pool), proc.stdout
    assert not [m for m in pool if m.startswith("scipy")
                or m in ("numpy.ma", "numpy.polynomial", "configparser")], proc.stdout


CASE2 = """
import sys
sys.path.insert(0, sys.argv[1])
from poisson_chaos import hazard
from poisson_chaos.harness import collect
from poisson_chaos.point_process import ExtendedGammaControl

model = hazard.rect_model(ExtendedGammaControl(), T=20.0)
values = collect(hazard.rep_linear_case, hazard.LinearStatistics(model, 2), 3, 5, 1)
print(values.shape, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_case2_replications_do_not_load_scipy():
    proc = subprocess.run([sys.executable, "-c", CASE2, SRC],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["(3,", "2)", "[]"], proc.stdout
