import gc
import sys

import pytest

from torusdyn import fixpoint


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that leaves the cyclic garbage collector disabled.

    The bulk point builds pause it (lattice.collector_paused) and must
    restore it on every exit, so a leaked pause shows up here.  The
    collector is re-enabled before failing, so one leak fails one test.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture(autouse=True)
def fresh_charpoly_split():
    """Start every test with an empty fixpoint._charpoly_split cache.

    The split of charpoly(M) is cached per matrix, so without this a test
    that counts charpoly's products or calls would read fewer of them
    whenever an earlier test had split the same matrix.
    """
    fixpoint._charpoly_split.cache_clear()
    yield


@pytest.fixture
def default_int_digit_limit():
    """Run with the interpreter's default 4,300-digit int <-> str cap.

    Whatever an earlier test or call set is restored afterwards, so that a
    test of lifting the cap does not depend on test order.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7: no cap
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(previous)
