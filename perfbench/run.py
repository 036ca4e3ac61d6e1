"""Run one workload of the qcurve benchmark and print its metrics.

    python3 perfbench/run.py --workload annihilate --seed 1 --seconds 30 --trace 0

Run from anywhere; the program measured is the ``src/qcurve`` beside this
directory.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the machine, the load and the raw wall-clock
figures, which a shared machine's noise makes too unsteady to bound.  The
full record, with per-op samples and, when traced, the spans, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qcurve" / "__init__.py").is_file():
        print(f"no qcurve sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import qcurve

    if not Path(qcurve.__file__).resolve().is_relative_to(SRC):
        print(f"imported qcurve from {qcurve.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in bench.workloads.ROUNDS:
        parser.error(f"--workload must be one of {', '.join(bench.workloads.ROUNDS)}")

    env = bench.environment(ROOT)
    env["loadavg_before"] = os.getloadavg()
    run = bench.traced_run if args.trace else bench.timed_run
    rows, metrics, details = run(args.workload, args.seed, args.seconds, SRC)
    env["loadavg_after"] = os.getloadavg()
    if not metrics:
        print("no op returned a verified verdict; nothing to report",
              file=sys.stderr)
        return 1
    failed = sum(not r.ok for r in rows)
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = dict(
        vars(args), env=env, result=result, **details,
        ops=[(r.op.label(), r.ms, r.ref_ms, r.ok) for r in rows],
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record))
    print("info " + json.dumps(dict(env, wall=details.get("wall"))))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
