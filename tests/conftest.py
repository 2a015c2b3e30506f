"""Shared fixtures.

α is chosen in one place, the process-wide default witness; a test that
switches it must not leak the switch into the tests that follow.
"""

import pytest

from quasifolds.exact import default_witness, set_default_witness


@pytest.fixture(autouse=True)
def restore_default_witness():
    saved = default_witness()
    yield
    set_default_witness(saved)
