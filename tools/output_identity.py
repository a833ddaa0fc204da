"""Output identity: do the checkout and an earlier revision write the same bytes?

    python tools/output_identity.py REV

``REV`` (any name ``git archive`` takes) is unpacked into a temporary
directory.  The inputs of the benchmark's three workloads (configs and case
series) are written once, with seed 101, by ``perfbench/workloads.py``
imported from the checkout, and every operation of each workload (18 in all) is run through
``seiar.cli.main`` under both source trees, each tree in its own subprocess
with its own ``src`` first on ``sys.path``.  Every output file is compared
by sha256.  Each file that differs or exists on one side only is printed;
for a CSV also its first differing row, how many of its rows differ, and the
largest relative difference between numeric cells.  Rows are paired by their
first cell when the first cells are unique on both sides, as in a key-value
file such as ``stability.csv``, and the keys found on one side only are
listed; otherwise they are paired by position.  Exit codes that differ
are printed too.  Exits 0 when every file is identical and every exit code
equal, 1 otherwise.  The checkout is only read: inputs, outputs and the
unpacked revision live in the temporary directory, and no bytecode is
written.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEED = 101

#: runs a JSON list of argv lists through seiar.cli.main; prints the exit codes
_RUNNER = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); from seiar.cli import main; "
    "print(json.dumps([main(argv) for argv in json.loads(sys.argv[2])]))")


def unpack(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.10.12, 3.11.4 and 3.12 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)
    return dest


def write_inputs(work: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every operation, with each ``--out`` relative to an
    output root that :func:`run_tree` supplies."""
    ops = []
    for name, build in workloads.WORKLOADS.items():
        (work / name).mkdir(parents=True)
        for op in build(work / name, SEED).ops:
            argv = list(op.argv)
            i = argv.index("--out") + 1
            argv[i] = str(Path(name) / Path(argv[i]).name)
            ops.append((f"{name}: {op.label}", argv))
    return ops


def run_tree(src: Path, ops, out_root: Path) -> list[int]:
    """Exit code of each operation under the tree at ``src``."""
    out_root.mkdir(parents=True)
    argvs = [[str(out_root / a) if k and argv[k - 1] == "--out" else a
              for k, a in enumerate(argv)] for _, argv in ops]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run([sys.executable, "-c", _RUNNER, str(src), json.dumps(argvs)],
                          env=env, cwd=out_root, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _relative(a: str, b: str) -> float | None:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _keyed(rows: list[list[str]]) -> dict[str, list[str]] | None:
    """``rows`` by their first cell, or None when first cells repeat."""
    keyed = {row[0] if row else "": row for row in rows}
    return keyed if len(keyed) == len(rows) else None


def csv_difference(old: Path, new: Path) -> list[str]:
    """The keys on one side only, the first differing row, the count of
    differing rows and the largest relative numeric difference, rows paired
    by first cell where that is a key, else by position."""
    rows_old = list(csv.reader(old.read_text(encoding="utf-8").splitlines()))
    rows_new = list(csv.reader(new.read_text(encoding="utf-8").splitlines()))
    keyed_old, keyed_new = _keyed(rows_old), _keyed(rows_new)
    lines = []
    if keyed_old is not None and keyed_new is not None:
        for side, keys in (("REV", keyed_old.keys() - keyed_new.keys()),
                           ("the checkout", keyed_new.keys() - keyed_old.keys())):
            if keys:
                lines.append(f"  keys only under {side}: {', '.join(sorted(keys))}")
        pairs = [(row, keyed_new[key]) for key, row in keyed_old.items() if key in keyed_new]
        paired = "rows paired by first cell"
    else:
        pairs = list(zip(rows_old, rows_new))
        paired = "rows paired by position"
    for a, b in pairs:
        if a != b:
            lines.append(f"  first differing row: {a} -> {b}")
            break
    differing = sum(a != b for a, b in pairs)
    lines.append(f"  {differing} of {len(pairs)} {paired} differ")
    if len(rows_old) != len(rows_new):
        lines.append(f"  {len(rows_old)} rows -> {len(rows_new)} rows")
    worst = max((r for a, b in pairs for x, y in zip(a, b)
                 if (r := _relative(x, y)) is not None), default=0.0)
    lines.append(f"  largest relative numeric difference: {worst:.3e}")
    return lines


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compare(old_root: Path, new_root: Path) -> tuple[int, list[list[str]]]:
    """Number of files compared, and the report lines of each differing file."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    old_files, new_files = files(old_root), files(new_root)
    differing = []
    for rel in sorted(old_files | new_files):
        if rel not in new_files or rel not in old_files:
            side = "REV" if rel in old_files else "the checkout"
            differing.append([f"{rel}: only under {side}"])
        elif sha256(old_root / rel) != sha256(new_root / rel):
            details = csv_difference(old_root / rel, new_root / rel) if rel.suffix == ".csv" else []
            differing.append([f"{rel}: differs"] + details)
    return len(old_files | new_files), differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to compare the checkout against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="seiar-identity-") as tmp:
        tmp = Path(tmp)
        old_src = unpack(args.rev, tmp / "rev") / "src"
        ops = write_inputs(tmp / "inputs")
        codes_old = run_tree(old_src, ops, tmp / "out-rev")
        codes_new = run_tree(ROOT / "src", ops, tmp / "out-checkout")
        exits = [f"{label}: exit {a} -> {b}"
                 for (label, _), a, b in zip(ops, codes_old, codes_new) if a != b]
        n_files, differing = compare(tmp / "out-rev", tmp / "out-checkout")
    print("\n".join(exits + [line for lines in differing for line in lines]))
    print(f"{len(ops)} operations, {n_files} output files, {n_files - len(differing)} identical"
          + (f", {len(exits)} exit codes differ" if exits else ""))
    return 0 if not exits and not differing else 1


if __name__ == "__main__":
    sys.exit(main())
