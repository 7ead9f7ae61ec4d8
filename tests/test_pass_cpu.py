"""The paired CPU probe ``tools/pass_cpu.py``: how a pair times its
children, its summary of per-pair ratios, and a smoke run of one pair of
the package against itself."""
from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from conftest import _PRESENTATION_CACHES

import veronese
from veronese.pipeline import cd_certificate, present_monomial_algebra
from veronese.toric import veronese_map

_SRC = Path(veronese.__file__).resolve().parent.parent
_TOOL = _SRC.parent / "tools" / "pass_cpu.py"


def _tool():
    spec = importlib.util.spec_from_file_location("pass_cpu", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_summary_reads_median_quartiles_and_wins():
    summary = _tool().summary
    assert summary([0.8, 0.9, 1.0, 1.1, 0.7]) == (
        "median ratio 0.900, quartiles 0.800 1.000, wins 3/5")
    assert summary([1.25]) == (
        "median ratio 1.250, quartiles 1.250 1.250, wins 0/1")


def test_a_pair_keeps_the_least_of_interleaved_children():
    """Each pair times ``CHILDREN`` fresh children per tree, alternating
    between the trees, the tree ``first`` first in every round, and keeps
    the least time of each tree."""
    tool = _tool()
    assert tool.CHILDREN >= 3
    for first in (0, 1):
        calls = []
        times = iter([5.0, 4.0, 3.0, 6.0] + [7.0] * (2 * tool.CHILDREN))

        def time_child(tree):
            calls.append(tree)
            return next(times)

        least = tool.pair_times(time_child, ("parent", "change"), first)
        order = ["parent", "change"][::1 if first == 0 else -1]
        assert calls == order * tool.CHILDREN
        expected = {order[0]: 3.0, order[1]: 4.0}
        assert least == [expected["parent"], expected["change"]]


def test_clearing_the_caches_empties_those_beside_the_presentation():
    """``--clear-caches`` starts each report as a fresh CLI process does:
    with no presentation, no field-free check values, no Veronese charts
    and no symmetric minors left by the reports before it."""
    present_monomial_algebra(veronese_map(2, 2).targets, (2,))
    cd_certificate(2, 2, (2,))
    assert all(cache.cache_info().currsize for cache in _PRESENTATION_CACHES)
    _tool()._clear_caches()
    assert [cache.cache_info().currsize
            for cache in _PRESENTATION_CACHES] == [0, 0, 0, 0]


def test_one_pair_of_the_package_against_itself():
    done = subprocess.run(
        [sys.executable, str(_TOOL), str(_SRC), str(_SRC), "--pairs", "1",
         "--workload", "char-sweep", "--clear-caches"],
        capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.splitlines()
    assert len(lines) == 2 and done.stderr == ""
    assert re.fullmatch(r"pair 1: parent \d+\.\d{4} s, change \d+\.\d{4} s, "
                        r"ratio \d+\.\d{3}", lines[0])
    assert re.fullmatch(r"median ratio \d+\.\d{3}, quartiles \d+\.\d{3} "
                        r"\d+\.\d{3}, wins [01]/1", lines[1])


def test_a_tree_without_the_package_is_refused(tmp_path):
    done = subprocess.run(
        [sys.executable, str(_TOOL), str(_SRC), str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert f"no veronese package under {tmp_path}" in done.stderr
