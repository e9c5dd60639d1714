"""``csvtext.csv_rows`` against ``'%.17g' %``, byte for byte."""

import subprocess
import sys

import numpy as np

from swingcert import csvtext
from swingcert.csvtext import csv_rows

from format_soundness import edge_values, first_mismatch, log_uniform, random_bits


def test_random_bit_patterns_match_printf():
    assert first_mismatch(random_bits(np.random.default_rng(1), 50_000)) is None


def test_log_uniform_values_match_printf():
    rng = np.random.default_rng(2)
    for low, high in [(1e-8, 1e4), (1e-30, 1e30), (1e-200, 1e200), (1e15, 1e18)]:
        assert first_mismatch(log_uniform(rng, low, high, 5_000)) is None


def test_edge_families_match_printf():
    assert first_mismatch(edge_values(np.random.default_rng(3), 20_000)) is None


def test_fallback_alone_matches_printf(monkeypatch):
    # No fraction lies more than one half from 1/2, so every value takes the
    # '%.17g' % fallback.
    monkeypatch.setattr(csvtext, "_BAND", 0.5)
    rng = np.random.default_rng(4)
    assert first_mismatch(np.concatenate([random_bits(rng, 2_000),
                                          edge_values(rng, 200)])) is None


def test_columns_blocks_and_strided_views():
    rng = np.random.default_rng(5)
    n = 2 * csvtext._ROWS + 3                   # three blocks
    a, b = log_uniform(rng, 1e-3, 1e3, n), random_bits(rng, n)
    flags = rng.random(n) < 0.5
    expected = "".join(["%.17g,%.17g,%d\n" % row
                        for row in zip(a.tolist(), b.tolist(), flags.tolist())])
    assert csv_rows([a, b, flags]) == expected
    states = np.stack([a, b], axis=1)
    assert csv_rows([*states.T, flags]) == expected
    assert csv_rows([np.empty(0), np.empty(0, bool)]) == ""


def test_import_builds_no_table():
    code = ("import swingcert.csvtext as c; "
            "print(c._tables.cache_info().currsize, c._offsets.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0", "0"]
