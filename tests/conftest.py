"""Shared pytest wiring.

The acceptance module records one PASS/FAIL line per criterion; echo those
lines into the terminal summary so the gate stays readable under output
capture. `criterion_8_states` hands tests the states the benchmark draws,
and `criterion_8_sequence` any prefix of the sequence they come from.
`simplex_count` counts the LP tableaux a test builds. `int_digit_limit`
hands tests the interpreter's limit on the digits of an integer string.
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


@pytest.fixture
def simplex_count(monkeypatch):
    """How many `_Simplex` tableaux are built while the test runs."""
    from polysteer.ratlin import simplex

    count = [0]

    class Counted(simplex._Simplex):
        def __init__(self, *args, **kwargs):
            count[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simplex, "_Simplex", Counted)
    return count


@pytest.fixture
def int_digit_limit():
    """sys.get_int_max_str_digits(); when that is 0 (no limit), the
    interpreter's default limit is set for the test and lifted after.
    Skips on a Python without the limit (before 3.10.7)."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no limit on the digits of an integer string")
    limit = sys.get_int_max_str_digits()
    if limit:
        yield limit
        return
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(0)
