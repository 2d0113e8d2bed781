import pytest

import hostspeed


def _host(samples):
    host = hostspeed.HostSpeed()
    host.starts = [start for start, _ in samples]
    host.ends = [end for _, end in samples]
    return host


def test_factor_uses_the_samples_before_inside_and_after_the_interval():
    # samples of 1, 2, 3, 4 and 5 seconds' length, back to back from t=0
    host = _host([(0, 1), (1, 3), (3, 6), (6, 10), (10, 15)])
    ref = hostspeed.REFERENCE_S
    # between the samples ending at 3 and starting at 6: lengths 2 and 3
    assert host.factor(3.0, 3.0) == pytest.approx(ref / 2.5)
    # the 4-second sample lies inside: lengths 3, 4 and 5
    assert host.factor(6.0, 10.0) == pytest.approx(ref / 4.0)
    assert host.scaled(6.0, 10.0) == pytest.approx(4.0 * ref / 4.0)
    assert host.scaled(6.0, 10.0, seconds=1.0) == pytest.approx(ref / 4.0)


def test_factor_at_the_ends_uses_the_nearest_sample():
    host = _host([(5, 6), (6, 8)])
    ref = hostspeed.REFERENCE_S
    assert host.factor(0.0, 1.0) == pytest.approx(ref / 1.0)
    assert host.factor(9.0, 12.0) == pytest.approx(ref / 2.0)


def test_sample_records_time_spent():
    host = hostspeed.HostSpeed()
    host.sample(2)
    assert len(host.starts) == len(host.ends) == 2
    assert host.spent_s == pytest.approx(sum(e - s for s, e in zip(host.starts, host.ends)))
    assert all(s < e for s, e in zip(host.starts, host.ends))
