"""Print the exit code and the sha256 of standard output of the ten `egp`
runs whose output a change that keeps the residues must leave
byte-identical: both appendix tables at bound 41, every verify suite,
table A at bound 13 through the `reduced` oracle, the one run that
reaches the block permanent kernel (`permanent.block_perm_mod`), the
JSON sequence of P_8_41 at bound 61 through `auto` and `cofactor`, the
JSON closed form of P_7_1 at bound 97, and those of the tree, wheel and
zig-zag families (`sequences.FAMILIES`) of size 6.  `table` prints only the
status of each row, so the `reduced` run hashes like table A when every
cell agrees; the two `compute` runs are the ones whose output carries
the cofactor engine's residues, and they hash alike because the residue
does not depend on the special vertex.  The `closed-form --name` run is
the one whose output carries `expressions.eval_expr`'s raw residues, at
p = 97, the largest four-variable lattice under `expressions.MAX_LATTICE`.

Usage: python tools/output_hashes.py

It runs `egp` from this checkout's `src/`, takes no options, and exits 1
if any of the runs exits with a nonzero code.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = (
    ("table", "--appendix", "A", "--bound", "41"),
    ("table", "--appendix", "B", "--bound", "41"),
    ("verify", "--suite", "all"),
    ("table", "--appendix", "A", "--bound", "13", "--algorithm", "reduced"),
    ("compute", "--graph", "catalog:P_8_41", "--bound", "61", "--json",
     "--algorithm", "auto"),
    ("compute", "--graph", "catalog:P_8_41", "--bound", "61", "--json",
     "--algorithm", "cofactor"),
    ("closed-form", "--name", "P_7_1", "--bound", "97", "--json"),
    *(("closed-form", "--family", family, "--size", "6", "--bound", "97", "--json")
      for family in ("tree", "wheel", "zigzag")),
)


def main() -> int:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), path] if path else [str(SRC)]))
    failed = False
    for args in RUNS:
        run = subprocess.run([sys.executable, "-m", "egperm.cli", *args],
                             env=env, stdout=subprocess.PIPE, check=False)
        digest = hashlib.sha256(run.stdout).hexdigest()
        print(f"egp {' '.join(args)}: exit {run.returncode} sha256 {digest}")
        failed |= run.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
