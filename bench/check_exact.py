#!/usr/bin/env python3
"""Compare the exact columns of freshly written bench files with HEAD.

    python3 bench/check_exact.py

Run from the root of a checkout after `dune exec bench/main.exe` has
rewritten the BENCH_*.json files. The simulated ("sim" backend) rows
of E17 (BENCH_transport.json "e17") and E19 (BENCH_pipeline.json
"e19") are deterministic: every integer and boolean column (calls, ok,
msgs, bytes, forwards, fallbacks, dup_execs) must equal the committed
file's, as `git show HEAD:<file>` prints it. Wall-clock columns are
floats and are not compared. Exits 1 and lists each difference when
any exact column moved, or when a row appeared or disappeared.
"""

import json
import subprocess
import sys

CHECKED = [("BENCH_transport.json", "e17"), ("BENCH_pipeline.json", "e19")]


def exact(row):
    # bool is a subclass of int, so this keeps both.
    return {k: v for k, v in row.items() if isinstance(v, int)}


def label(row):
    return tuple(sorted((k, v) for k, v in row.items() if isinstance(v, str)))


def sim_rows(doc, section):
    rows = {}
    for row in doc.get(section, []):
        if row.get("backend") == "sim":
            rows[label(row)] = exact(row)
    return rows


def main():
    problems = []
    for path, section in CHECKED:
        with open(path) as f:
            fresh = sim_rows(json.load(f), section)
        committed = subprocess.run(
            ["git", "show", "HEAD:" + path], check=True, capture_output=True, text=True
        ).stdout
        base = sim_rows(json.loads(committed), section)
        if not base:
            problems.append(f"{path} {section}: no sim rows at HEAD")
        for key in sorted(set(base) | set(fresh)):
            name = ", ".join(f"{k}={v}" for k, v in key)
            if key not in fresh:
                problems.append(f"{path} {section} [{name}]: row missing")
            elif key not in base:
                problems.append(f"{path} {section} [{name}]: new row")
            else:
                for col in sorted(set(base[key]) | set(fresh[key])):
                    was, now = base[key].get(col), fresh[key].get(col)
                    if was != now:
                        problems.append(f"{path} {section} [{name}] {col}: {was} -> {now}")
    for p in problems:
        print("check_exact: " + p)
    if problems:
        sys.exit(1)
    print(f"check_exact: E17/E19 sim rows match HEAD ({len(CHECKED)} files)")


if __name__ == "__main__":
    main()
