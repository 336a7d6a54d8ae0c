"""Run one workload of the repository's benchmark and print its figures.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point-hot --seed 1 --seconds 10 --trace 0

Workloads: ``build`` (generate → spill → compact), ``point-hot``,
``scan-cold`` and ``routed`` (served).  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload again under
tracing and prints the per-layer metrics instead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record (host steal, CPU count,
affinities, filesystem, code revision).  A run whose answers are wrong
prints ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCHMARK.json"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("build", "point-hot", "scan-cold", "routed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metrics(names_units, values: dict) -> dict:
    missing = [name for name, _ in names_units if name not in values]
    if missing:
        raise RuntimeError(f"run produced no value for {missing}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in names_units}


def main(argv=None) -> int:
    args = _parse(argv)
    # A termination request unwinds like an error, so every server and
    # build process this run started is stopped and its scratch removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program under test (src/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import build, host, served

    # numpy seeds must be non-negative; any integer maps to one.
    seed = args.seed % (1 << 63)
    spec = json.loads(BENCH.read_text())
    key = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in spec[key]]
    work = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = host.host_record(work, ROOT)
        if args.workload == "build":
            outcome = build.run(ROOT, work, seed, args.seconds,
                                bool(args.trace))
        else:
            outcome = served.run(ROOT, work, args.workload, seed,
                                 args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    values = outcome["layers"] if args.trace else outcome["end_to_end"]
    if args.trace:
        # A layer this workload does not load reports 0.
        values = {name: values.get(name, 0.0) for name, _ in wanted}
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, **outcome["record"])
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": outcome["correct"],
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": _metrics(wanted, values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
