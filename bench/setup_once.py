"""Time one cold set-up of a workload in a fresh process.

    python3 bench/setup_once.py <workload> <seed> <trace 0|1>

run.py starts this several times per run, so that set-up time includes what
a new process pays (quadrature roots and other process-wide caches), not a
warm repeat. Prints one JSON object: ``setup_s`` and, with trace 1, the
per-layer ``[calls, s, self_s]`` of the set-up.
"""

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    name, seed, trace = argv[0], int(argv[1]), int(argv[2])
    inputs = workloads.make_inputs(workloads.SPECS[name], seed)
    P = workloads.normalised_P(inputs)
    layers = {}
    if trace:
        tracer = spans.Tracer()
        with tracer:
            tracer.begin_op("setup")
            start = time.perf_counter()
            tracer.wrap("op.setup", workloads.setup)(inputs, P)
            seconds = time.perf_counter() - start
            tracer.end_op()
        layers = tracer.layer_totals()[0]
    else:
        start = time.perf_counter()
        workloads.setup(inputs, P)
        seconds = time.perf_counter() - start
    print(json.dumps({"setup_s": seconds, "layers": layers}))


if __name__ == "__main__":
    main(sys.argv[1:])
