"""Dynamic time warping: examples, path contract, and oracle equivalence."""

import math
from itertools import product

import numpy as np
import pytest

from oracles import brute_force_dtw, dtw_oracle
from roomsense.dtw import dtw_distance, dtw_path
from roomsense.simulator import SimConfig, generate

ALPHABET = (-80, -70, -60, -50)


def test_identical_sequences():
    assert dtw_distance([-50, -60, -70], [-50, -60, -70]) == 0.0
    assert dtw_path([-50, -60, -70], [-50, -60, -70]) == (0.0, ((0, 0), (1, 1), (2, 2)))


def test_single_cell():
    assert dtw_distance([0], [5]) == 5.0
    assert dtw_path([0], [5]) == (5.0, ((0, 0),))


def test_unequal_lengths_example():
    # expected value confirmed by exhaustive path enumeration
    assert brute_force_dtw([1, 2, 3], [2, 2, 2, 3, 4]) == 2
    assert dtw_distance([1, 2, 3], [2, 2, 2, 3, 4]) == 2.0


def test_empty_sequences_rejected():
    for dtw in (dtw_distance, dtw_path):
        with pytest.raises(ValueError, match="nonempty"):
            dtw([], [1])
        with pytest.raises(ValueError, match="nonempty"):
            dtw([1], [])


@pytest.mark.parametrize("x", [
    [[1.0, 2.0], [3.0, 4.0]],
    np.array([[1.0], [2.0], [3.0]]),
    np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    np.array(1.0),
    1.0,
    "123",
    b"12",
], ids=["2d-list", "n-by-1-array", "n-by-2-array", "0d-array", "scalar", "str", "bytes"])
def test_non_1d_input_rejected(x):
    for dtw in (dtw_distance, dtw_path):
        with pytest.raises(ValueError, match="1-D"):
            dtw(x, [1.0, 2.0])
        with pytest.raises(ValueError, match="1-D"):
            dtw([1.0, 2.0], x)


def test_list_tuple_and_array_inputs_agree():
    x, y = [-61, -58, -70, -58], [-60, -71, -59]
    inputs = [(kind(x), kind(y)) for kind in (list, tuple, np.array)]
    inputs.append((np.array(x, dtype=float), np.array(y, dtype=float)))
    results = [(dtw_distance(*pair), dtw_path(*pair)) for pair in inputs]
    for result in results[1:]:
        assert result == results[0]


def _non_finite_cases():
    """One NaN or +-inf at the first, a middle or the last place of either input."""
    for bad in (math.nan, math.inf, -math.inf):
        for n, m in ((1, 1), (1, 20), (20, 1)):
            for k in sorted({0, n // 2, n - 1}):
                x = [-60.0] * n
                x[k] = bad
                yield x, [-61.0] * m
                yield [-61.0] * m, x


@pytest.mark.parametrize("x, y", [
    ([float("nan"), 1], [1, 2]),
    ([1, 2], [1, float("nan")]),
    ([1, float("inf")], [1, 2]),
    ([1, 2], [float("-inf")]),
    ([1e308], [-1e308, 0]),  # finite values whose cost overflows
    *_non_finite_cases(),
])
def test_non_finite_rejected(x, y):
    for dtw in (dtw_distance, dtw_path):
        with pytest.raises(ValueError, match="finite"):
            dtw(x, y)


def _oracle_cases():
    """3,000 seeded pairs: integer RSSI, a tie-heavy range and floats."""
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n, m = rng.integers(1, 9, size=2)
        yield rng.integers(-100, 1, size=n).tolist(), rng.integers(-100, 1, size=m).tolist()
    for _ in range(1000):
        n, m = rng.integers(1, 9, size=2)
        yield rng.integers(-3, 0, size=n).tolist(), rng.integers(-3, 0, size=m).tolist()
    for _ in range(1000):
        n, m = rng.integers(1, 21, size=2)
        yield rng.normal(size=n).tolist(), rng.normal(size=m).tolist()


def test_distance_and_path_match_numpy_grid_oracle():
    for x, y in _oracle_cases():
        distance, path = dtw_oracle(x, y)
        assert repr(dtw_distance(x, y)) == repr(distance), (x, y)
        assert dtw_path(x, y) == (distance, path), (x, y)


def test_building_scale_traces_match_numpy_grid_oracle():
    points = generate(SimConfig(devices_per_room=50, seed=0))
    uniques = [trace.unique for point in points for trace in point.traces.values()]
    rng = np.random.default_rng(21)
    for a, b in rng.integers(0, len(uniques), size=(3000, 2)):
        x, y = uniques[a], uniques[b]
        distance, path = dtw_oracle(x, y)
        assert repr(dtw_distance(x, y)) == repr(distance), (x, y)
        assert dtw_path(x, y) == (distance, path), (x, y)


def test_exhaustive_oracle_equivalence_short_sequences():
    sequences = [
        seq for n in (1, 2, 3) for seq in product(ALPHABET, repeat=n)
    ]
    for x in sequences:
        for y in sequences:
            assert dtw_distance(x, y) == brute_force_dtw(x, y)


def _path_is_valid(path, n, m):
    if path[0] != (0, 0) or path[-1] != (n - 1, m - 1):
        return False
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        di, dj = i1 - i0, j1 - j0
        if di not in (0, 1) or dj not in (0, 1) or (di, dj) == (0, 0):
            return False
    return True


def test_path_contract_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n, m = rng.integers(1, 9, size=2)
        x = rng.integers(-100, 1, size=n)
        y = rng.integers(-100, 1, size=m)
        distance, path = dtw_path(x, y)
        assert _path_is_valid(path, n, m)
        path_cost = sum(abs(float(x[i]) - float(y[j])) for i, j in path)
        assert abs(path_cost - distance) < 1e-9
        assert distance >= 0


def test_symmetry_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n, m = rng.integers(1, 9, size=2)
        x = rng.normal(size=n)
        y = rng.normal(size=m)
        assert dtw_distance(x, y) == pytest.approx(dtw_distance(y, x), abs=1e-12)


def test_aligned_cost_upper_bound_for_equal_lengths():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        aligned = float(np.sum(np.abs(x - y)))
        assert dtw_distance(x, y) <= aligned + 1e-12


def test_zero_distance_means_zero_cost_alignment():
    # zero can occur without x == y when an all-zero-cost alignment exists
    assert dtw_distance([1, 1], [1]) == 0.0
    rng = np.random.default_rng(17)
    for _ in range(200):
        n, m = rng.integers(1, 7, size=2)
        x = rng.integers(0, 3, size=n)
        y = rng.integers(0, 3, size=m)
        distance, path = dtw_path(x, y)
        costs = [abs(float(x[i]) - float(y[j])) for i, j in path]
        assert (distance == 0.0) == all(c == 0.0 for c in costs)
