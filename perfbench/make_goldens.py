"""Write the golden outputs the ``cli`` workload compares against.

    PYTHONPATH=src python3 perfbench/make_goldens.py

Run it only at a commit whose preset output is known to be right: the
goldens freeze that output byte for byte.
"""

import sys

from workloads import GOLDENS, OUT, PRESETS, run_child


def main() -> int:
    GOLDENS.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    for name, argv in PRESETS:
        code, out, err, _ = run_child(
            [sys.executable, "-m", "qbarrier", *argv, "--no-timestamp"],
            OUT / "cli-stdout.txt")
        if code != 0:
            sys.stderr.write(err.decode())
            return code
        (GOLDENS / name).write_bytes(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
