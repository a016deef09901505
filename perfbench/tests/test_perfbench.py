"""Tests of the benchmark itself: tracing, references, bare-directory exit.

Run with `python3 -m pytest -q perfbench/tests`. Each test runs a few cheap
ops of a workload rather than a whole pass.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Cheap ops that still reach every layer their workload is meant to load.
SUBSETS = {
    "random_batch": ("state01/decide_steering", "state01/affine_section_search",
                     "state03/decide_steering", "state03/affine_section_search"),
    "tensor_dd": ("min_tensor/square_space/square_space", "max_tensor/square_space/square_space",
                  "max_tensor/simplex_3/cube_space"),
    "cli_roundtrip": ("pure/extremality_gap", "verify/pure/extremality_gap",
                      "homogeneous/simplex_3", "verify/homogeneous/simplex_3",
                      "self-dual/square_space", "verify/self-dual/square_space"),
}

# Bindings each workload must reach, one module's copy at a time: a wrapper
# missing from a `from .ratlin import ...` copy leaves its entry silent.
EXPECTED_FIRED = {
    "random_batch": [
        ("polysteer._kernel.pure", "Tableau.pivot"),
        ("polysteer._kernel.pure", "Tableau.__init__"),
        ("polysteer.ratlin.simplex", "LPOutcome.check"),
        ("polysteer.steering", "lp_feasible"),
        ("polysteer.steering", "nullspace"),
        ("polysteer.steering", "solve_linear"),
        ("polysteer.steering", "polytope_vertices"),
        ("polysteer.steering", "_section_search_full"),
        ("polysteer.steering", "lift_ensemble"),
        ("polysteer.dd", "lp_feasible"),
        ("polysteer.dd", "extreme_rays"),
    ],
    "tensor_dd": [
        ("polysteer.dd", "extreme_rays"),
        ("polysteer.cone", "rank"),
        ("polysteer.cone", "dd_convert"),
        ("polysteer.cone", "dd_convert_inv"),
        ("polysteer.composite", "cone_from_rays"),
        ("polysteer.composite", "cone_from_facets"),
        ("polysteer.composite", "min_tensor"),
        ("polysteer.composite", "max_tensor"),
    ],
    "cli_roundtrip": [
        ("polysteer.cli", "main"),
        ("polysteer.cli", "cmd_verify"),
        ("polysteer.cli", "is_homogeneous"),
        ("polysteer.cli", "is_weakly_self_dual"),
        ("polysteer.cli", "is_pure_in_max"),
        ("polysteer.theoryfile", "loads"),
        ("polysteer.theoryfile", "load"),
        ("polysteer.composite", "nullspace"),
        ("polysteer.composite", "map_is_extremal"),
        ("polysteer.space", "lp_feasible"),
        ("polysteer.space", "rank"),
        ("polysteer.space", "order_isomorphisms"),
    ],
}


def traced_subset(workload, tmp_path, refs=None):
    prog = workloads.import_program()
    keys = SUBSETS[workload]
    ops = workloads.build(prog, workload, 7, str(tmp_path))
    ops = sorted((op for op in ops if op.key in keys), key=lambda op: keys.index(op.key))
    assert [op.key for op in ops] == list(keys)
    rec = tracing.Recorder()
    tracing.install(prog, rec)
    stats = run.run_passes(ops, refs or run.load_references(workload), 0, 1, float("inf"), rec)
    return rec, stats


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_repeat_exactly(workload, tmp_path):
    first, stats = traced_subset(workload, tmp_path)
    second, _ = traced_subset(workload, tmp_path)
    assert stats.failed == 0, stats.failures
    counts = {
        k: v for k, v in tracing.layer_metrics(first).items()
        if not k.endswith("_s")
    }
    again = {k: tracing.layer_metrics(second)[k] for k in counts}
    assert counts == again
    assert counts["trace.spans"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_wrapper_fires_on_its_workload(workload, tmp_path):
    rec, stats = traced_subset(workload, tmp_path)
    assert stats.failed == 0, stats.failures
    silent = [b for b in EXPECTED_FIRED[workload] if rec.fired.get(b, 0) == 0]
    assert not silent


def test_tampered_reference_counts_as_failure(tmp_path):
    refs = dict(run.load_references("tensor_dd"))
    key = SUBSETS["tensor_dd"][0]
    refs[key] = "0" * 64
    _, stats = traced_subset("tensor_dd", tmp_path, refs)
    assert stats.failed == 1
    assert stats.failed / stats.attempted > 0
    assert "stored reference" in stats.failures[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tensor_dd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tail_has_ten_ops_beyond_it():
    lat = [float(i) for i in range(1, 41)]
    pct, value = run.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == 75.0
    assert run.tail([3.0, 1.0]) == (100.0, 3.0)


def test_host_speed_scale_uses_bursts_around_the_interval():
    host = hostspeed.Sampler()
    w = hostspeed.WINDOW
    host.starts = [float(t) for t in range(8 * w)]
    host.bursts = [hostspeed.NOMINAL_S] * (4 * w) + [2 * hostspeed.NOMINAL_S] * (4 * w)
    assert host.scale(w + 0.5, w + 0.6) == 1.0
    assert host.scale(6 * w + 0.5, 6 * w + 0.6) == 0.5
    # An interval with bursts inside it also weighs those.
    assert host.scale(4 * w - 0.5, 8 * w) == 0.5


def test_periodic_bursts_are_taken_out_of_op_latency():
    def spin():
        end = time.process_time() + 3 * hostspeed.PERIOD_S
        while time.process_time() < end:
            pass

    op = workloads.Op("spin", spin, lambda r: [], lambda r: "done")
    stats = run.run_passes([op], {"spin": "done"}, 0, 1, float("inf"), timed=True)
    assert stats.failed == 0, stats.failures
    for op_run in stats.runs:
        t0, t1 = op_run.span
        inside = [b for s, b in zip(stats.host.starts, stats.host.bursts) if t0 <= s <= t1]
        assert inside, "no burst was taken inside a long op"
        assert op_run.latency + sum(inside) <= t1 - t0


def test_stored_references_cover_every_op(tmp_path):
    prog = workloads.import_program()
    for workload in workloads.WORKLOADS:
        refs = run.load_references(workload)
        keys = {op.key for op in workloads.build(prog, workload, 3, str(tmp_path))}
        assert keys == set(refs)
        with open(os.path.join(BENCH, "references", f"{workload}.json")) as fh:
            assert json.load(fh)["backend"] == "pure"
