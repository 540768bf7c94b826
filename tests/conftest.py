"""Fixtures shared by the test modules."""

import random
import time

import pytest

from arcticauction.market import generate_random_instance
from arcticauction.oracle import oracle_solve


@pytest.fixture(scope="session")
def criterion_01_oracle():
    """``oracle_solve``'s result on each of criterion 01's 200 instances
    (shapes up to 4x4 drawn from seed 424242, instance seeds from 1000), in
    corpus order, and the seconds the calls took.  Criterion 01 counts those
    seconds against its gate; test_kkt's pinned reports read the results."""
    rng = random.Random(424242)
    shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(200)]
    insts = [generate_random_instance(1000 + k, n, m, 10) for k, (n, m) in enumerate(shapes)]
    t0 = time.time()
    results = [oracle_solve(inst) for inst in insts]
    return results, time.time() - t0
