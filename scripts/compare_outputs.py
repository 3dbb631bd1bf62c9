"""Compare the CSV and VTK outputs of two CLI runs field by field.

    python3 scripts/compare_outputs.py A_DIR B_DIR

It descends into every subdirectory present on both sides, such as the
per-command directories of an output root, and names each file by its path
below the two roots.  For every file present in either directory it prints
one line per CSV column and per VTK array: the largest absolute difference,
the largest relative difference and the verdict.  The relative difference of
a field is its largest absolute difference over the largest magnitude the
field takes in either run, so that entries which are roundoff around zero
are judged against the field's own scale.  `energy_residual` is itself a
roundoff-level ratio of two energies, so it is judged on an absolute bound
instead.  Text fields (mode names) must match exactly, and a file or
directory present on one side only fails.  Exit status 0 when every field
is within its bound, 1 otherwise, also when the output is piped into a
command that stops reading early.
"""

import argparse
import csv
import math
import os
import sys
from pathlib import Path

REL_BOUND = 1e-12
ABS_BOUNDS = {"energy_residual": 1e-15}


def read_csv(path: Path) -> dict:
    """Column name -> list of cell strings."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: [row[k] for row in body] for k, name in enumerate(header)}


def read_vtk(path: Path) -> dict:
    """Array name -> flat list of value strings, for the legacy ASCII
    unstructured grid that cli_io.write_vtk writes."""
    lines = path.read_text(encoding="utf-8").splitlines()
    arrays = {}
    count = 0
    k = 0
    while k < len(lines):
        words = lines[k].split()
        k += 1
        if not words:
            continue
        if words[0] in ("POINTS", "CELLS", "CELL_TYPES"):
            n = int(words[1])
            arrays[words[0]] = " ".join(lines[k : k + n]).split()
            k += n
        elif words[0] in ("CELL_DATA", "POINT_DATA"):
            count = int(words[1])
        elif words[0] in ("SCALARS", "VECTORS"):
            if k < len(lines) and lines[k].startswith("LOOKUP_TABLE"):
                k += 1
            arrays[words[1]] = " ".join(lines[k : k + count]).split()
            k += count
    return arrays


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def compare_field(name: str, a: list, b: list) -> tuple:
    """(max absolute difference, max relative difference, within bound).
    Differences are None for text fields and for fields of unequal length."""
    if len(a) != len(b):
        return None, None, False
    x, y = [_number(v) for v in a], [_number(v) for v in b]
    if any(v is None for v in x + y):
        return None, None, a == b
    # non-finite entries (the first row's undefined change) must match exactly
    finite = [(u, v) for u, v in zip(x, y) if math.isfinite(u) and math.isfinite(v)]
    same_rest = all(
        u == v or (math.isnan(u) and math.isnan(v))
        for u, v in zip(x, y)
        if not (math.isfinite(u) and math.isfinite(v))
    )
    abs_diff = max((abs(u - v) for u, v in finite), default=0.0)
    scale = max((max(abs(u), abs(v)) for u, v in finite), default=0.0)
    rel_diff = abs_diff / scale if scale > 0.0 else 0.0
    bound_ok = abs_diff <= ABS_BOUNDS[name] if name in ABS_BOUNDS else rel_diff <= REL_BOUND
    return abs_diff, rel_diff, same_rest and bound_ok


def compare_dirs(dir_a: Path, dir_b: Path, prefix: str = "") -> bool:
    names = sorted({p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()})
    all_ok = True
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        name = prefix + name
        if path_a.is_dir() and path_b.is_dir():
            all_ok &= compare_dirs(path_a, path_b, f"{name}/")
            continue
        if not (path_a.is_file() and path_b.is_file()):
            print(f"{name}: present in one directory only  FAIL")
            all_ok = False
            continue
        identical = path_a.read_bytes() == path_b.read_bytes()
        reader = {".csv": read_csv, ".vtk": read_vtk}.get(path_a.suffix)
        if reader is None:
            print(f"{name}: {'byte-identical' if identical else 'differs'}")
            all_ok &= identical
            continue
        fields_a, fields_b = reader(path_a), reader(path_b)
        print(f"{name}: {'byte-identical' if identical else 'differs in bytes'}")
        for field in sorted(set(fields_a) | set(fields_b)):
            abs_diff, rel_diff, ok = compare_field(
                field, fields_a.get(field, []), fields_b.get(field, [])
            )
            present = field in fields_a and field in fields_b
            same_length = len(fields_a.get(field, [])) == len(fields_b.get(field, []))
            ok &= present
            bound = (
                f"abs <= {ABS_BOUNDS[field]:g}" if field in ABS_BOUNDS else f"rel <= {REL_BOUND:g}"
            )
            if not (present and same_length):
                diffs = "missing on one side" if not present else "lengths differ"
            elif abs_diff is None:
                diffs = "text"
            else:
                diffs = f"max abs {abs_diff:.3e}  max rel {rel_diff:.3e}"
            print(f"  {field:16s} {diffs:40s} {bound:14s} {'ok' if ok else 'FAIL'}")
            all_ok &= ok
    return all_ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args()
    try:
        same = compare_dirs(args.dir_a, args.dir_b)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`| head`): compare again without output,
        # so that the exit status still gives the verdict.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        same = compare_dirs(args.dir_a, args.dir_b)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
