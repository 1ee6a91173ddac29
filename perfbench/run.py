"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4_hits --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separately traced run that reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full record (median, tail and sample
count of every timing, workload-specific metrics, seed, commit, source
digest and host).  The run exits non-zero without a result when the package
sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "toy"), default="full",
        help="toy shrinks every workload for the self-tests",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set the workload up once in this process, print setup_s",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        seconds = harness.probe_setup(args.workload, args.seed, args.scale)
        print(json.dumps({"setup_s": seconds}))
        return 0
    run = harness.run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), scale=args.scale
    )
    print(harness.format_table(run))
    print(json.dumps(run.detail(), sort_keys=True))
    print(json.dumps(run.final_line(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
