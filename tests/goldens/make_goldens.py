"""Write the damped goldens that ``tests/test_cli.py`` compares byte for byte.

    python3 tests/goldens/make_goldens.py --diff
    python3 tests/goldens/make_goldens.py

Each file is the stdout of ``python -m qbarrier ARGV --no-timestamp`` on
this checkout's ``src``.  Run it only after ``--diff`` has shown the moves
the change explains: the goldens freeze the new output byte for byte.
``--diff`` writes nothing; per golden, and per column of it, it prints the
cells that moved and the largest move with the axis value (tau or epsilon)
of its row, then the header lines that changed, each numeric one with its
relative move; a golden not on disk yet it reports as new with its row
count.  It exits 1 when any cell, column or header line moved or a golden
is new, 0 when none did.
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
    ("refined-cumulative", "cumulative_g2e-4.csv",
     ["cumulative", "--tau-range", "0:30:7", "--gamma-star", "2e-4"]),
    ("figure3", "figure3.csv", ["figure3"]),
    ("figure5", "figure5.csv", ["figure5"]),
)


def _relative_move(old: str, new: str) -> str:
    """`` (relative move r)`` for header lines ``# key=number`` whose
    nonzero number moved, else nothing."""
    try:
        was, now = (float(line.partition("=")[2]) for line in (old, new))
    except ValueError:
        return ""
    return f" (relative move {abs(now - was) / abs(was):.2g})" if was else ""


def diff(golden: str, old: str, new: str) -> tuple:
    """One report line per golden and per column, then each changed header
    line; and whether anything moved.  ``old`` None is a golden not yet on
    disk, reported by its row count and counted as moved."""
    if old is None:
        rows = [ln for ln in new.splitlines() if not ln.startswith("#")]
        return f"{golden}: new, {len(rows) - 1} rows", True
    old_head, new_head = ([ln for ln in text.splitlines() if ln.startswith("#")]
                          for text in (old, new))
    old_rows, new_rows = ([ln.split(",") for ln in text.splitlines()
                           if not ln.startswith("#")] for text in (old, new))
    if [len(r) for r in old_rows] != [len(r) for r in new_rows]:
        return f"{golden}: the table's shape changed", True
    axis = [row[0] for row in new_rows[1:]]
    # per column, (move, axis value of its row) of each cell that moved
    columns = [[(abs(float(b) - float(a)), x)
                for a, b, x in zip(ca, cb, axis) if a != b]
               for ca, cb in zip(zip(*old_rows[1:]), zip(*new_rows[1:]))]
    moves = [move for col in columns for move, _ in col]
    lines = [f"{golden}: {len(moves)} of {sum(map(len, old_rows[1:]))} cells "
             f"moved, by at most {max(moves, default=0.0):.2g}"]
    for name, col in zip(old_rows[0], columns):
        line = f"  {name}: {len(col)} of {len(old_rows) - 1} moved"
        if col:
            move, x = max(col)
            line += (f", by at most {move:.2g} at {old_rows[0][0]} "
                     f"{float(x):.6g}")
        lines.append(line)
    changed = bool(moves)
    if old_rows[:1] != new_rows[:1]:
        lines.append(f"  columns {','.join(old_rows[0])} -> "
                     f"{','.join(new_rows[0])}")
        changed = True
    heads = [f"  {a} -> {b}{_relative_move(a, b)}"
             for a, b in zip(old_head, new_head) if a != b]
    if len(old_head) != len(new_head):
        heads.append(f"  {len(old_head)} header lines -> {len(new_head)}")
    return "\n".join(lines + heads), changed or bool(heads)


def main(argv: list) -> int:
    if argv not in ([], ["--diff"]):
        sys.stderr.write("usage: make_goldens.py [--diff]\n")
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    moved = False
    for _, golden, args in DAMPED:
        done = subprocess.run(
            [sys.executable, "-m", "qbarrier", *args, "--no-timestamp"],
            env=env, capture_output=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode())
            return done.returncode
        if argv:
            path = HERE / golden
            report, changed = diff(
                golden, path.read_text() if path.exists() else None,
                done.stdout.decode())
            print(report)
            moved = moved or changed
        else:
            (HERE / golden).write_bytes(done.stdout)
    return int(moved)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
