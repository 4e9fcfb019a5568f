"""Checks of the benchmark's per-layer tracing and speed sampling.

    PYTHONPATH=src python3 -m pytest -q bench/tests

The traced-output test runs every workload twice in child processes, so
this file takes about half a minute.
"""

import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from loophom import analysis, cli, dga, linalg, spaces  # noqa: E402
from loophom.graded_algebra import GradedAlgebra  # noqa: E402

import job  # noqa: E402
import run  # noqa: E402
from tracing import traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Layer functions that another module imports by name: a wrapper installed
# only where the function is defined would miss these calls.
IMPORTED_BY_NAME = [
    (dga, "kernel_basis"),
    (dga, "rank_of_columns"),
    (dga, "differential_matrix"),
    (analysis, "differential_matrix"),
    (analysis, "homology_dimensions"),
    (analysis, "rank_of_columns"),
    (analysis, "e2_page"),
    (spaces, "e2_page"),
    (spaces, "induced_map_on_homology"),
    (linalg, "rank_sparse"),  # Matrix.rank calls it through the linalg globals
]
METHODS = [(GradedAlgebra, "enumerate_basis"), (dga.Derivation, "apply_monomial")]

SMALL_COMPUTE = [
    "compute", "--space", "loop", "--n", "2", "--field", "f2",
    "--components", "0..1", "--cutoff", "20",
]


def _is_wrapper(fn) -> bool:
    return hasattr(fn, "bench_span")


def _leftover_wrappers() -> list:
    found = [
        f"{cls.__name__}.{attr}"
        for cls, attr in METHODS
        if _is_wrapper(vars(cls)[attr])
    ]
    for mod_name, module in list(sys.modules.items()):
        if module is not None and mod_name.startswith("loophom"):
            found += [f"{mod_name}.{a}" for a, v in vars(module).items() if _is_wrapper(v)]
    return found


def test_wrapper_is_installed_wherever_a_layer_function_is_held():
    originals = [getattr(module, attr) for module, attr in IMPORTED_BY_NAME]
    with traced():
        for module, attr in IMPORTED_BY_NAME + METHODS + [(cli, "main")]:
            assert _is_wrapper(getattr(module, attr)), f"{module.__name__}.{attr}"
    for (module, attr), original in zip(IMPORTED_BY_NAME, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_every_wrapper_is_removed_after_the_run(capsys):
    with traced():
        cli.main(SMALL_COMPUTE)
    assert _leftover_wrappers() == []


def test_self_times_add_up_to_the_outermost_spans(capsys):
    with traced() as tracer:
        cli.main(SMALL_COMPUTE)
    total_self = sum(span.self_s for span in tracer.spans.values())
    assert total_self == pytest.approx(tracer.top_s, rel=1e-9, abs=1e-9)
    assert tracer.spans["cli.main"].calls == 1


def test_every_listed_per_layer_metric_is_reported(capsys):
    with traced() as tracer:
        cli.main(SMALL_COMPUTE)
    reported = set(tracer.metrics()) | {"trace.overhead_s"}
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric["name"]
    assert {m["name"] for m in spec["per_layer"]} <= reported


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_output_is_byte_identical_to_untraced(name):
    plain = run.run_child(name, 0)
    traced_job = run.run_child(name, 0, "--trace")
    assert plain.problems == [] and traced_job.problems == []
    assert traced_job.stdout == plain.stdout
    assert "trace" in traced_job.report
    assert plain.report["calibration"]["count"] > 2
    assert "calibration" not in traced_job.report


def test_speed_sampling_runs_during_the_block_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with job.sampled_speed() as samples:
        deadline = perf_counter() + 20 * job.SAMPLE_INTERVAL_S
        while perf_counter() < deadline:
            pass
    # one sample on entry, one on exit, and the timer's in between
    assert len(samples) >= 5
    assert all(s > 0 for s in samples)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
