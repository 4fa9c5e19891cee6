"""Write bench/reference.json: fingerprints of every operation at the default seed.

    python3 bench/make_reference.py

Run it only when a change is meant to move the numbers, which also bumps
aimpart.CONVENTIONS_VERSION. Fingerprints of other versions already in the
file are kept. The invariant checks must pass before anything is written.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from aimpart import CONVENTIONS_VERSION  # noqa: E402


def fingerprints(spec):
    inputs = workloads.make_inputs(spec, workloads.DEFAULT_SEED)
    prep = workloads.setup(inputs, workloads.normalised_P(inputs))
    outputs, result = {}, {}
    for op in workloads.OPS:
        out = workloads.run_op(op, inputs, prep, outputs)
        problems = workloads.check(op, out, inputs, prep, outputs)
        if problems:
            raise SystemExit(f"{spec.name} {op}: {problems}")
        outputs[op] = out
        result[op] = workloads.fingerprint(out)
    return result


def main():
    path = workloads.REFERENCE_PATH
    doc = {"by_conventions_version": {}}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["by_conventions_version"][CONVENTIONS_VERSION] = {
        "seed": workloads.DEFAULT_SEED,
        "workloads": {name: fingerprints(workloads.SPECS[name])
                      for name in workloads.WORKLOADS},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
