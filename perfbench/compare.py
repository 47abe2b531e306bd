#!/usr/bin/env python3
"""Compare two saved outputs of perfbench/run.py.

    python3 perfbench/run.py --workload crit8-sampling --seed 0 --seconds 30 --trace 0 > before.txt
    ... change the code ...
    python3 perfbench/run.py --workload crit8-sampling --seed 0 --seconds 30 --trace 0 > after.txt
    python3 perfbench/compare.py before.txt after.txt

Prints every metric of both runs with the after/before ratio, says whether
the output digests match (a behaviour-preserving change keeps them equal),
and flags outputs recorded on different hosts or for different workloads,
whose timings must not be compared.
"""

from __future__ import annotations

import json
import sys


def parse(path: str) -> dict:
    out: dict = {"host": None, "workload": None, "digest": None, "metrics": {}}
    with open(path) as fh:
        for line in fh:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "host":
                out["host"] = json.loads(rest)
            elif kind == "workload":
                out["workload"] = rest
            elif kind == "digest":
                out["digest"] = rest.split()[0]
            elif kind == "metric":
                name, value, unit = rest.split()[:3]
                out["metrics"][name] = (float(value), unit)
    if out["host"] is None or out["workload"] is None:
        raise SystemExit(f"{path}: not an output of perfbench/run.py")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (parse(path) for path in argv)
    if before["host"] != after["host"]:
        print("WARNING: recorded on different hosts; timings are not comparable")
        for key in sorted(set(before["host"]) | set(after["host"])):
            a, b = before["host"].get(key), after["host"].get(key)
            if a != b:
                print(f"  host {key}: {a} -> {b}")
    if before["workload"].split(" trace=")[0] != after["workload"].split(" trace=")[0]:
        print(f"WARNING: different workloads: {before['workload']} vs {after['workload']}")
    same = before["digest"] == after["digest"]
    print(f"digest {'same' if same else 'DIFFERENT'}: {before['digest']} -> {after['digest']}")
    for name in sorted(set(before["metrics"]) | set(after["metrics"])):
        a = before["metrics"].get(name)
        b = after["metrics"].get(name)
        if a is None or b is None:
            print(f"{name}: only in {'after' if a is None else 'before'}")
            continue
        ratio = f"{b[0] / a[0]:.3f}x" if a[0] else "n/a"
        print(f"{name}: {a[0]:.6g} -> {b[0]:.6g} {a[1]} ({ratio})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
