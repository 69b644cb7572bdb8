"""Compare two results written by `perfbench/run.py --out`.

    python3 perfbench/diff.py BEFORE.json AFTER.json

Prints each metric of both runs and the relative change. Runs whose stamps
differ in kernel backend or CPU count measured different machines or
lanes, so the comparison is flagged and no change is reported.
"""

from __future__ import annotations

import argparse
import json
import sys

COMPARABLE = ("backend", "nproc")


def _show(value) -> str:
    return f"{value:.6g}" if isinstance(value, (int, float)) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    with open(args.before, encoding="utf-8") as fh:
        before = json.load(fh)
    with open(args.after, encoding="utf-8") as fh:
        after = json.load(fh)

    mismatched = [k for k in COMPARABLE if before["stamp"].get(k) != after["stamp"].get(k)]
    for key in ("workload", "seed", "seconds", "trace"):
        if before[key] != after[key]:
            print(f"note: {key} differs: {before[key]} vs {after[key]}")
    if mismatched:
        detail = ", ".join(f"{k} {before['stamp'].get(k)} vs {after['stamp'].get(k)}"
                           for k in mismatched)
        print(f"FLAG: not comparable ({detail}); no change reported")

    old, new = before["result"]["metrics"], after["result"]["metrics"]
    for name in sorted(set(old) | set(new)):
        a = old.get(name, {}).get("value")
        b = new.get(name, {}).get("value")
        unit = (new.get(name) or old.get(name))["unit"]
        change = ""
        if not mismatched and isinstance(a, (int, float)) and isinstance(b, (int, float)) and a:
            change = f"{(b - a) / abs(a):+.1%}"
        print(f"{name:<55} {_show(a):>12} {_show(b):>12} {unit:<6} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
