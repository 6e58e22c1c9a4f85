import pytest

from stats import MIN_BEYOND, TooFewSamples, percentile, samples_beyond


def test_nearest_rank_percentiles():
    values = list(range(1, 201))  # 1..200
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190
    assert percentile(list(reversed(values)), 95) == 190


def test_median_of_one_and_of_a_small_odd_count():
    assert percentile([7.0], 50) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_p95_needs_ten_samples_beyond_it():
    assert samples_beyond(200, 95) == MIN_BEYOND
    assert samples_beyond(199, 95) == MIN_BEYOND - 1
    assert percentile(range(200), 95) == 189
    with pytest.raises(TooFewSamples):
        percentile(range(199), 95)


def test_no_samples_and_bad_quantiles_are_refused():
    with pytest.raises(TooFewSamples):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2, 3], 100)

