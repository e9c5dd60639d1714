"""Byte-for-byte checks of ``swingcert.csvtext.csv_rows`` against
``'%.17g' %``.

``edge_values`` lists the values where a shortcut of the writer could go
wrong: the powers of ten from 1e-210 to 1e209 with their -1, +1 and +2 ulp
neighbours, the doubles nearest the decimal midpoints between adjacent
17-digit values with their -1 and +1 ulp neighbours, doubles that lie
exactly on such a midpoint (``%.17g`` rounds them half to even), and the
values the writer leaves to ``'%.17g' %`` (zeros, infinities, NaN,
subnormals and the ends of its range), each with both signs.  ``first_mismatch`` returns the
first value the writer formats differently.

The Tier-1 tests call these on small samples.  Run as a script, it checks
10**6 seeded random bit patterns, 10**6 log-uniform values over
[1e-12, 1e12] of either sign and the edge families, and exits 1 at the
first mismatch:

    PYTHONPATH=src python tests/format_soundness.py
"""

from __future__ import annotations

import math
import sys

import numpy as np

from swingcert.csvtext import csv_rows

CHUNK = 100_000


def random_bits(rng, count: int) -> np.ndarray:
    """Doubles of seeded random 64-bit patterns, NaNs and subnormals included."""
    return rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64)


def log_uniform(rng, low: float, high: float, count: int) -> np.ndarray:
    """Values of random sign whose magnitudes are log-uniform over [low, high]."""
    magnitudes = np.exp(rng.uniform(math.log(low), math.log(high), count))
    return magnitudes * rng.choice([-1.0, 1.0], count)


def edge_values(rng, midpoints: int) -> np.ndarray:
    """The edge families of the module docstring, with ``midpoints`` seeded
    decimal midpoints over [1e-200, 1e200]."""
    powers = np.array([float(f"1e{e}") for e in range(-210, 210)])
    above = np.nextafter(powers, np.inf)
    mids = np.array([
        float("{}5e{}".format(*("%.16e" % v).split("e")))
        for v in np.abs(log_uniform(rng, 1e-200, 1e200, midpoints)).tolist()
    ])
    # x = m 2^(d-17) with m odd and x in [10^d, 10^(d+1)) has 17 - d fraction
    # digits, the last a 5, and 18 significant ones: an exact tie at 17.
    ties = []
    for d in range(-5, 15):
        scale = 2.0 ** (d - 17)
        low, high = math.ceil(10.0**d / scale), math.floor(10.0 ** (d + 1) / scale)
        ties += [(m | 1) * scale for m in rng.integers(low, high - 1, 50).tolist()]
    specials = np.array([
        0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        1e-200, 1e200, 9.9999999999999999e16, 1e16, 1e17, 0.5, 300.0, 1e-4, 1e-5,
    ])
    with np.errstate(over="ignore"):            # past the largest double
        beyond = np.nextafter(specials, np.inf)
    values = np.concatenate([
        powers, np.nextafter(powers, 0.0), above, np.nextafter(above, np.inf),
        mids, np.nextafter(mids, 0.0), np.nextafter(mids, np.inf), ties,
        specials, np.nextafter(specials, 0.0), beyond,
    ])
    return np.concatenate([values, -values])


def first_mismatch(values):
    """(value, written, expected) for the first value whose line from
    ``csv_rows`` differs from ``'%.17g' % value``, or None."""
    values = np.asarray(values, dtype=float)
    for start in range(0, len(values), CHUNK):
        chunk = values[start:start + CHUNK]
        text = csv_rows([chunk])
        expected = "".join(["%.17g\n" % v for v in chunk.tolist()])
        if text != expected:
            for v, line in zip(chunk.tolist(), text.split("\n")):
                if line != "%.17g" % v:
                    return v, line, "%.17g" % v
            return float(chunk[-1]), text[-40:], expected[-40:]
    return None


def main() -> int:
    rng = np.random.default_rng(2016)
    checks = [
        ("random bit patterns", random_bits(rng, 10**6)),
        ("log-uniform over [1e-12, 1e12]", log_uniform(rng, 1e-12, 1e12, 10**6)),
        ("edge families", edge_values(rng, 20_000)),
    ]
    for name, values in checks:
        bad = first_mismatch(values)
        if bad is not None:
            value, written, expected = bad
            print(f"{name}: {value!r} written as {written!r}, '%.17g' gives {expected!r}")
            return 1
        print(f"{name}: {len(values)} values, every line identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
