"""Shared pytest wiring.

The acceptance module records one PASS/FAIL line per criterion; echo those
lines into the terminal summary so the gate stays readable under output
capture. `criterion_8_states` hands tests the states the benchmark draws,
and `criterion_8_sequence` any prefix of the sequence they come from.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def pytest_terminal_summary(terminalreporter):
    for name, module in list(sys.modules.items()):
        if name.rpartition(".")[2] != "test_acceptance":
            continue
        lines = getattr(module, "VERDICT_LINES", None)
        if lines:
            terminalreporter.section("acceptance criteria")
            for line in lines:
                terminalreporter.write_line(line)
        break


@pytest.fixture(scope="session")
def benchmark_workloads():
    """perfbench/workloads.py, imported without a bytecode cache, and the
    polysteer modules its state generator reads."""
    from polysteer import composite, fixtures, space

    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module, SimpleNamespace(composite=composite, fixtures=fixtures, space=space)


@pytest.fixture(scope="session")
def criterion_8_states(benchmark_workloads):
    """The states `random_batch` draws from acceptance criterion 8's
    sequence, built by the benchmark's own generator."""
    module, prog = benchmark_workloads
    return module.criterion_8_states(prog, module.CORPUS_STATES)


@pytest.fixture(scope="session")
def criterion_8_sequence(benchmark_workloads):
    """The first `count` states of that sequence, as a function of count."""
    module, prog = benchmark_workloads
    return lambda count: module.criterion_8_states(prog, count)
