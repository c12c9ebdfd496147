"""Record the catalog goldens: the exact ``--json`` output of each canonical
stratum, which the catalog workload then compares byte for byte.

    python3 perfbench/record_goldens.py

Run it only when a change to the catalog documents is intended; review the
diff of perfbench/goldens/ like any other change of expected output.
"""

import io
import sys

import workloads
from worker import load_polyvec


def main():
    pv = load_polyvec()
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, command, matrix in workloads.STRATA:
        out, err = io.StringIO(), io.StringIO()
        code = pv.cli.run([command, "--json", "--matrix", matrix], out, err)
        if code != 0:
            print(f"{name}: exit {code}: {err.getvalue()}", file=sys.stderr)
            return 1
        (workloads.GOLDEN_DIR / f"{name}.json").write_text(out.getvalue())
        print(f"{name}: {len(out.getvalue())} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
