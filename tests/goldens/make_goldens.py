"""Write the damped goldens that ``tests/test_cli.py`` compares byte for byte.

    python3 tests/goldens/make_goldens.py

Each file is the stdout of ``python -m qbarrier ARGV --no-timestamp`` on
this checkout's ``src``.  Run it only after a cell-wise diff against the old
files shows the moves the change explains: the goldens freeze the new
output byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

# (test id, golden, argv); test_cli_damped_output_matches_its_golden reads it
DAMPED = (
    ("transmission", "transmission_g5e-3.csv",
     ["transmission", "--epsilon-range", "0.5:3:9", "--gamma-star", "5e-3"]),
    ("weak-damping", "transmission_g1e-5_omega10.csv",
     ["transmission", "--epsilon-range", "0.5:3:5", "--gamma-star", "1e-5",
      "--omega-star", "10"]),
    ("cumulative", "cumulative_g1e-3.csv",
     ["cumulative", "--tau-range", "0:5:11", "--gamma-star", "1e-3"]),
    ("figure3", "figure3.csv", ["figure3"]),
    ("figure5", "figure5.csv", ["figure5"]),
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _, golden, argv in DAMPED:
        done = subprocess.run(
            [sys.executable, "-m", "qbarrier", *argv, "--no-timestamp"],
            env=env, capture_output=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode())
            return done.returncode
        (HERE / golden).write_bytes(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
