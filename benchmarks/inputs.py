"""Seeded workload inputs, built with numpy alone.

The benchmark makes every input itself from its ``--seed``, so the
program under test only ever receives generated arrays or files and no
input depends on code the program owns.

Two families:

* level pools (in-memory workloads): ``k`` datasets whose series sit at
  evenly spaced levels, so each dataset is a distinct distribution for
  the prototype gate to route. A series is
  ``level + sin(2 pi f t + phase) + noise`` with a per-series level drawn
  around its dataset's offset. The supervised label is the side of zero
  its dataset lies on; the level jitter makes the two innermost datasets
  overlap across zero, so accuracy sits below 1 by construction.
* frequency files (the command-line workload): z-scored by the program
  on load, so the class lives in the shape: label 0 draws its frequency
  from a lower band, label 1 from an upper band, and the bands overlap.
"""

from __future__ import annotations

import numpy as np

LEVEL_JITTER = 0.7
WAVE_NOISE = 0.1
FREQ_BANDS = ((2.0, 5.25), (4.75, 8.0))
FREQ_NOISE = 0.05


def rng_for(seed, *tags):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))


def level_series(rng, offset, n, length):
    """[n, 1, length] series around ``offset`` plus their levels."""
    t = np.arange(length) / length
    levels = offset + rng.normal(0.0, LEVEL_JITTER, n)
    freqs = rng.uniform(2.0, 8.0, n)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    waves = np.sin(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None])
    noise = rng.normal(0.0, WAVE_NOISE, (n, length))
    return (levels[:, None] + waves + noise)[:, None, :]


def level_pool(seed, tag, k, n_per, length):
    """``k`` groups of ``n_per`` series: a list of (x [n_per, 1, L],
    labels [n_per]) pairs, one per dataset, in dataset order."""
    out = []
    for j, offset in enumerate(np.linspace(-3.0, 3.0, k)):
        x = level_series(rng_for(seed, tag, j), offset, n_per, length)
        labels = np.full(n_per, int(offset > 0.0), dtype=np.int64)
        out.append((x, labels))
    return out


def frequency_series(rng, n, length):
    """[n, length] float series and balanced labels for the file family."""
    t = np.arange(length) / length
    labels = np.arange(n, dtype=np.int64) % 2
    lo = np.where(labels == 0, FREQ_BANDS[0][0], FREQ_BANDS[1][0])
    hi = np.where(labels == 0, FREQ_BANDS[0][1], FREQ_BANDS[1][1])
    freqs = rng.uniform(lo, hi)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    x = np.sin(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None])
    x = x + rng.normal(0.0, FREQ_NOISE, (n, length))
    return x, labels


def write_label_file(path, x, labels):
    """One sample per line: integer label, then the values, tab separated,
    at full float precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(x, labels):
            fh.write("\t".join([str(int(label))] + [repr(float(v)) for v in row]))
            fh.write("\n")
