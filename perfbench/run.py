"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sa_reset_stream --seed 1 --seconds 20 --trace 0

Human-readable report lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  The library is imported from ``src/`` next to this
directory; without it the command fails with exit code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import bench
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines = bench.measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
