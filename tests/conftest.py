"""Checks that hold in every test.

``_kernels.Rows.add`` takes each sample sorted ascending and does not check
it (its bins and row constants assume the order), so every test session
wraps it with an assertion. The fixture is session-scoped: Hypothesis
rejects function-scoped fixtures in its tests.
"""

import numpy as np
import pytest

from potrisk import _kernels


@pytest.fixture(scope="session", autouse=True)
def _rows_are_added_sorted():
    add = _kernels.Rows.add

    def checked(self, sample):
        assert not np.any(sample[1:] < sample[:-1]), "Rows.add takes samples sorted ascending"
        return add(self, sample)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernels.Rows, "add", checked)
        yield
