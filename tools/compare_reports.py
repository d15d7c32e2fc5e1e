"""Compare two directories of reports written by `bdf suite`.

    python tools/compare_reports.py A B

Every report file under A is matched with the file of the same relative
path under B; `*.meta.json` files hold timestamps and are skipped.  JSON
reports are compared value by value and CSV mirrors cell by cell.  Per
check (the last dotted part of the file stem, e.g. `decay` or `summary`)
the tool prints how many files are byte-identical and the largest float
deviation, then every field whose floats moved, with its largest
deviation.  The deviation of two floats a and b is
|a - b| / max(1, |a|, |b|): relative for values of size 1 and above,
absolute below, so rounding noise on a residual near 0 reads as small.

Exit status: 0 when the two sides differ at most in float values, 1 on
any other difference (a file on one side only, an exit code, a pass flag,
a string, an integer, a key or a length), 2 on bad arguments.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import sys
from pathlib import Path

_INDEX = re.compile(r"\[\d+\]")


def deviation(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(1.0, abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def load(path: Path):
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [[_cell(c) for c in row] for row in csv.reader(fh)]
    return json.loads(path.read_text())


def walk(a, b, where: str, floats: dict, exact: list) -> None:
    """Record float deviations by field in `floats` (path with list indices
    dropped -> (deviation, full path)) and every other difference in
    `exact`."""
    if isinstance(a, float) and isinstance(b, float):
        dev = deviation(a, b)
        field = _INDEX.sub("[]", where)
        if dev > floats.get(field, (-1.0, ""))[0]:
            floats[field] = (dev, where)
    elif type(a) is not type(b):
        exact.append(f"{where}: {a!r} != {b!r}")
    elif isinstance(a, dict):
        if a.keys() != b.keys():
            exact.append(f"{where}: keys {sorted(a)} != {sorted(b)}")
            return
        for key in a:
            walk(a[key], b[key], f"{where}.{key}" if where else key, floats, exact)
    elif isinstance(a, list):
        if len(a) != len(b):
            exact.append(f"{where}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            walk(x, y, f"{where}[{i}]", floats, exact)
    elif a != b:
        exact.append(f"{where}: {a!r} != {b!r}")


def _reports(root: Path) -> set[Path]:
    return {
        p.relative_to(root) for p in root.rglob("*")
        if p.suffix in (".json", ".csv") and not p.name.endswith(".meta.json")
    }


def compare(root_a: Path, root_b: Path):
    """(per-check table, exact differences).  The table maps a check to
    {"files", "identical", "fields": field -> (deviation, path)}."""
    files_a, files_b = _reports(root_a), _reports(root_b)
    exact = [f"{p}: only in {root_a}" for p in sorted(files_a - files_b)]
    exact += [f"{p}: only in {root_b}" for p in sorted(files_b - files_a)]
    table: dict[str, dict] = {}
    for rel in sorted(files_a & files_b):
        check = rel.stem.rsplit(".", 1)[-1]
        row = table.setdefault(check, {"files": 0, "identical": 0, "fields": {}})
        row["files"] += 1
        pa, pb = root_a / rel, root_b / rel
        if pa.read_bytes() == pb.read_bytes():
            row["identical"] += 1
            continue
        fields: dict = {}
        found: list = []
        walk(load(pa), load(pb), "", fields, found)
        exact += [f"{rel}: {line}" for line in found]
        for field, (dev, where) in fields.items():
            key = f"{rel.suffix[1:]}:{field}"
            if dev > row["fields"].get(key, (-1.0, ""))[0]:
                row["fields"][key] = (dev, f"{rel}:{where}")
    return table, exact


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: compare_reports.py DIR_A DIR_B (two report directories)",
              file=sys.stderr)
        return 2
    root_a, root_b = Path(args[0]), Path(args[1])
    table, exact = compare(root_a, root_b)
    print(f"{'check':24s} {'files':>6s} {'identical':>9s} {'max_dev':>9s}")
    for check, row in sorted(table.items()):
        devs = [dev for dev, _ in row["fields"].values()]
        print(f"{check:24s} {row['files']:6d} {row['identical']:9d} "
              f"{max(devs, default=0.0):9.2e}")
    print("\nfields whose floats moved (largest deviation, where):")
    for check, row in sorted(table.items()):
        for field, (dev, where) in sorted(row["fields"].items(),
                                          key=lambda kv: -kv[1][0]):
            if dev > 0.0:
                print(f"  {check:22s} {field:40s} {dev:9.2e}  {where}")
    if exact:
        print(f"\n{len(exact)} differences beyond float values:")
        for line in exact[:50]:
            print(f"  {line}")
        return 1
    print("\nno difference beyond float values")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): stop quietly, with stdout
        # sent to devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
