"""The benchmark's one command.

    python3 perfbench/run.py --workload plan-sim --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a checkout against the program in
``src/``, checks the program's outputs, and prints one JSON object as the
last line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports every end-to-end metric; ``--trace 1``
runs the traced variant, reports every per-layer metric and writes the
spans to ``.perfbench-out/``.  See ``perfbench/README.md`` for what each
workload runs and how each metric is defined on it.

``--size smoke`` shrinks every workload to seconds of work; the
benchmark's own tests use it.  Exit codes: 0 with a result, 1 when the
workload raised, 2 when the program is missing or arguments are bad.
"""

import argparse
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("plan-sim", "plan-sim-faulted", "tcp-epoch", "service-fleet")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def run(args):
    """Dispatch to the workload; returns the result dict."""
    from perfbench import common, fleet, plansim, tcpepoch

    module = {
        "plan-sim": plansim, "plan-sim-faulted": plansim,
        "tcp-epoch": tcpepoch, "service-fleet": fleet,
    }[args.workload]
    lead = (args.workload,) if module is plansim else ()
    if args.trace:
        os.makedirs(common.OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            common.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        outcome, values = module.traced(*lead, args.seed, args.seconds, args.size, spans_path)
    else:
        outcome, values = module.end_to_end(*lead, args.seed, args.seconds, args.size)
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        return common.result_line(outcome, values, common.PER_LAYER_UNITS, idle_is_zero=True)
    return common.result_line(outcome, values, common.END_TO_END_UNITS)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
