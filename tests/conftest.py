"""Shared fixtures. The sieved tables are built once per session."""

import sys
import threading
from pathlib import Path

import pytest
from hypothesis import settings

from cpsq import PrimeTable, sieve_primes

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def table_small() -> PrimeTable:
    """Primes to 10^4, enough for window queries up to x = 10^8."""
    return sieve_primes(10**4)


@pytest.fixture(scope="session")
def table_big() -> PrimeTable:
    """Primes to 10^6, enough for window queries up to x = 10^12."""
    return sieve_primes(10**6)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fails a test that leaves a thread running that it did not find running."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"
