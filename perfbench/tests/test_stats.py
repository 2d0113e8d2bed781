import random

import pytest

from stats import tail


def test_tail_has_exactly_ten_samples_above_it():
    xs = list(range(1, 101))
    random.Random(0).shuffle(xs)
    value, pct, n = tail(xs)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in xs) == 10


def test_tail_of_eleven_samples_is_the_smallest():
    value, pct, n = tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0
    assert pct == pytest.approx(100 / 11)
    assert n == 11


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(range(10))
