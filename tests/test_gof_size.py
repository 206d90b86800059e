"""The verdicts reject fits to true GPD draws at about their nominal rate (``scripts/gof_size.py``).

At a fixed seed, 400 draws of two cells whose fitted shapes the table
mostly covers. At each level alpha, the count of rejected fits among the
k covered ones is within four binomial standard deviations of k * alpha.
At 2,000 draws a cell these shares sit within 0.01 of alpha at n = 50
and 0.06 at n = 100 (where the table's size at 0.5 is about 0.55), so the
bound holds for the seed with room, while a slip that breaks the
transform, the pairing of A² or the table's lookup moves the shares by far
more.
"""

import math
import sys
from pathlib import Path

import pytest

from potrisk.gof import ALPHA_LEVELS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import gof_size  # noqa: E402

DRAWS = 400
SEED = 0
BOUND = 4.0  # binomial standard deviations


@pytest.mark.parametrize(("n", "shape"), [(50, 0.2), (100, 0.1)])
def test_the_verdicts_reject_true_gpd_fits_at_their_level(n, shape):
    fitted, covered, rejected = gof_size.rejections(n, shape, DRAWS, SEED)
    assert fitted >= 0.95 * DRAWS and covered >= 0.5 * DRAWS
    for alpha, count in zip(ALPHA_LEVELS, rejected):
        sd = math.sqrt(covered * alpha * (1.0 - alpha))
        assert abs(count - covered * alpha) <= BOUND * sd, (alpha, count, covered)
