"""Seeded input generators for the seeded workloads.

The generators use numpy only, never ``potrisk``, so a change to the
program cannot change the inputs it is measured on. The same seed always
gives byte-identical files.
"""

import datetime
import math

import numpy as np

START = datetime.date(1982, 1, 8)

# tail_scan: one returns file holding two GPD tails of equal size.
SCAN_TAIL_SIZE = 1500
SCAN_GAIN = (0.20, 0.16)  # (shape, scale) of the gains
SCAN_LOSS = (-0.30, 0.22)  # (shape, scale) of the loss magnitudes

# long_history: the recipe of scripts/generate_synthetic_data.py on a
# daily history, with the loss scale lowered from 0.22 to 0.186 so that the
# log drift is about zero and the two tails come out near equal in size.
HISTORY_ROWS = 30_000
HISTORY_GAIN = (0.20, 0.16)
HISTORY_LOSS = (-0.30, 0.186)
HISTORY_P_ZERO = 0.04
HISTORY_LEVEL_BAND = 1.2


def gpd_quantile(shape: float, scale: float, q: np.ndarray) -> np.ndarray:
    """Inverse GPD distribution function, written out so inputs do not depend on potrisk."""
    if shape == 0.0:
        return -scale * np.log1p(-q)
    return (scale / shape) * np.expm1(-shape * np.log1p(-q))


def tail_scan_returns(seed: int) -> np.ndarray:
    """1,500 gains and 1,500 negated loss magnitudes, shuffled."""
    rng = np.random.default_rng(seed)
    gains = gpd_quantile(*SCAN_GAIN, rng.random(SCAN_TAIL_SIZE))
    losses = gpd_quantile(*SCAN_LOSS, rng.random(SCAN_TAIL_SIZE))
    values = np.concatenate([gains, -losses])
    return values[rng.permutation(values.size)]


def write_tail_scan(seed: int, path) -> np.ndarray:
    """Write the tail_scan ``date,return`` CSV; return the values as written."""
    values = tail_scan_returns(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,return\n")
        for i, v in enumerate(values):
            fh.write(f"{(START + datetime.timedelta(days=i)).isoformat()},{float(v)!r}\n")
    return values


def history_revenues(seed: int) -> list[str]:
    """Daily revenues, formatted to 4 decimals as they are written."""
    rng = np.random.default_rng(seed)
    n = HISTORY_ROWS - 1
    pos_draws = iter(gpd_quantile(*HISTORY_GAIN, rng.random(n)))
    neg_draws = iter(gpd_quantile(*HISTORY_LOSS, rng.random(n)))
    kinds = rng.random(n)

    revenue = 100.0
    out = [f"{revenue:.4f}"]
    level = 0.0
    for i in range(n):
        if level > HISTORY_LEVEL_BAND:
            gain = False
        elif level < -HISTORY_LEVEL_BAND:
            gain = True
        elif kinds[i] < HISTORY_P_ZERO:
            out.append(out[-1])
            continue
        else:
            gain = kinds[i] < HISTORY_P_ZERO + (1.0 - HISTORY_P_ZERO) / 2.0
        x = float(next(pos_draws)) if gain else -float(next(neg_draws))
        level += math.log1p(x)
        revenue = round(revenue * (1.0 + x), 4)
        out.append(f"{revenue:.4f}")
    return out


def write_long_history(seed: int, path) -> np.ndarray:
    """Write the long_history ``date,revenue`` CSV; return its returns.

    The returns are computed from the revenues as written, the same way
    the program computes them, so tail sizes derived here are exact.
    """
    revenues = history_revenues(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,revenue\n")
        for i, rev in enumerate(revenues):
            fh.write(f"{(START + datetime.timedelta(days=i)).isoformat()},{rev}\n")
    return returns_from_revenues(np.array([float(r) for r in revenues]))


def returns_from_revenues(revenues: np.ndarray) -> np.ndarray:
    return np.diff(revenues) / revenues[:-1]


def tails(returns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive returns and negative-return magnitudes."""
    return returns[returns > 0.0], -returns[returns < 0.0]
