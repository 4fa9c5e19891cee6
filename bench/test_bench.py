"""Self-tests of the benchmark (not part of the library's suite).

    python3 -m pytest -q bench/test_bench.py

They run the operations on small versions of the workloads, so they take
seconds; the small grids miss N by more than the full-size tolerances, so
these tests look at fingerprints and reference checks, not at invariants.
"""

import json
import os
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _prepared(name, seed=3):
    inputs = workloads.make_inputs(workloads.small_spec(name), seed)
    return inputs, workloads.setup(inputs, workloads.normalised_P(inputs))


def _run_all(inputs, prep):
    outputs = {}
    for op in workloads.OPS:
        outputs[op] = workloads.run_op(op, inputs, prep, outputs)
    return outputs


def test_tracer_restores_every_patched_name():
    table = spans.patch_table()
    originals = [vars(owner)[attr] for owner, attr, _ in table]
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            for (owner, attr, _), original in zip(table, originals):
                assert vars(owner)[attr] is not original, attr
            1 / 0
    for (owner, attr, _), original in zip(table, originals):
        assert vars(owner)[attr] is original, attr


def test_self_times_tile_the_root_span():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    tracer.begin_op("op")
    outer()
    tracer.end_op()
    totals = tracer.layer_totals()[0]
    assert totals["inner"][0] == 3
    assert totals["outer"][2] + totals["inner"][1] == pytest.approx(totals["outer"][1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_fingerprints_identical(name):
    inputs, prep = _prepared(name)
    plain = _run_all(inputs, prep)
    tracer = spans.Tracer()
    with tracer:
        tracer.begin_op("all")
        traced = _run_all(inputs, prep)
        tracer.end_op()
    for op in workloads.OPS:
        assert (json.dumps(workloads.fingerprint(plain[op]))
                == json.dumps(workloads.fingerprint(traced[op]))), op
    seen = {span[0] for span in tracer.spans}
    assert {"partition.run_partition", "dma.run_dma", "dma.esp_exact"} <= seen


def test_perturbed_reference_fails():
    inputs, prep = _prepared("bent3")
    outputs = _run_all(inputs, prep)
    for op in workloads.OPS:
        ref = json.loads(json.dumps(workloads.fingerprint(outputs[op])))
        assert workloads.reference_problems(outputs[op], ref) == [], op
        key = next(k for k in ("charges", "multipoles", "values") if k in ref)
        flat = ref[key]
        while isinstance(flat[0], list):
            flat = flat[0]
        flat[0] += 1e-3
        problems = workloads.check(op, outputs[op], inputs, prep, outputs, ref)
        assert f"{key} differ from the reference" in problems, op


def test_reference_of_another_conventions_version_is_refused(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"by_conventions_version": {"0": {}}}))
    with pytest.raises(workloads.ReferenceError, match="conventions version"):
        workloads.load_reference(path)


def test_stored_reference_matches_this_version():
    ref = workloads.load_reference()
    assert ref["seed"] == workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        assert set(ref["workloads"][name]) == set(workloads.OPS)


def test_metric_names_match_benchmark_json():
    """Both metric sets the runner prints are exactly the declared ones."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        decl = json.load(fh)
    inputs, prep = _prepared("dense2")
    runner = run.Runner(workloads, inputs, prep, None)
    runner.rounds(None, setups=False)
    tracer = spans.Tracer()
    with tracer:
        runner.rounds(None, tracer, setups=False)
    e2e = run.end_to_end_metrics(runner, inputs, 0.1)
    layers = run.per_layer_metrics(runner, tracer, {}, inputs, {"failed": 1})
    assert list(e2e) == [m["name"] for m in decl["end_to_end"]]
    assert list(layers) == [m["name"] for m in decl["per_layer"]]
    for section, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        units = {m["name"]: m["unit"] for m in decl[section]}
        assert {name: unit for name, (_, unit) in metrics.items()} == units
    assert [w["name"] for w in decl["workloads"]] == list(workloads.WORKLOADS)


def test_times_are_divided_by_the_median_nearby_speed_factor(monkeypatch):
    """A group's normalised times are its wall times over the median of the
    speed factors calibrated within CAL_WINDOW_S of it."""
    factors = iter([1.0, 4.0])
    monkeypatch.setattr(run.calibrate, "speed_factor", lambda: next(factors))
    inputs, prep = _prepared("dense2")
    runner = run.Runner(workloads, inputs, prep, None)
    assert runner.group("solve_hirshfeld", None)
    runner.calibrations.append((runner.groups[-1][3] + run.CAL_WINDOW_S + 1.0, 10.0))
    runner.normalise()
    raw, norm = runner.raw_samples["solve_hirshfeld"], runner.samples["solve_hirshfeld"]
    assert sum(raw) >= run.SLOT_SECONDS
    assert norm == pytest.approx([t / 2.5 for t in raw])
