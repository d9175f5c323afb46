"""Feature operations: worked examples, symmetry, and the matrix file format."""

import io
import math
import re
import sys
import warnings

import numpy as np
import pytest

from conftest import make_point, make_point_same_traces
from oracles import ap_features_oracle, naive_features
from roomsense._schema import InputError
from roomsense.dataset import CSV_CHUNK_LINES, READING_RANGE, Trace
from roomsense.evaluation import standardize_fit
from roomsense.features import (
    AP_FEATURE_NAMES,
    FEATURE_CSV_HEADER,
    FEATURE_NAMES,
    featurize_pair,
    featurize_samples,
    read_feature_matrix,
    write_feature_matrix,
)


def _pair_block(u, v):
    """The six features of traces u and v through `featurize_pair`, with the
    same traces on every AP; the three AP blocks must agree."""
    vec = featurize_pair(make_point_same_traces(-1, 1, u), make_point_same_traces(1, 1, v), 0, 0)
    blocks = vec.reshape(3, len(AP_FEATURE_NAMES)).tolist()
    assert blocks[0] == blocks[1] == blocks[2]
    return tuple(blocks[0])


# (feature name, u, v, expected): worked examples for each of the six features
AP_FEATURE_EXAMPLES = [
    ("md", [-50, -60], [-50, -60], 0),
    ("md", [-50, -60], [-70, -80], 20),  # |55 - 75|
    ("md", [-60], [-60], 0),
    ("savg", [-50], [-50], 50),
    ("savg", [-50, -60], [-70], 60),
    ("savg", [-40, -80], [-40, -80], 60),  # union dedups
    ("smin", [-50], [-50], 50),
    ("smin", [-50, -60], [-70, -80], 50),
    ("smin", [-100], [-41], 41),
    ("high", [-50, -60], [-80], 1.0),
    ("high", [-40, -55], [-60, -80], 0.75),
    ("high", [-40], [-45], 0.0),
    ("avg", [-40, -55], [-60, -80], 0.25),
    ("avg", [-70, -80], [-90], 1.0),
    ("avg", [-40], [-40], 0.0),
    ("dtw", [-50, -60], [-50, -60], 0.0),
    ("dtw", [0], [5], 5.0),
    ("dtw", [1, 2, 3], [2, 2, 2, 3, 4], 2.0),
]


@pytest.mark.parametrize(
    "name, u, v, expected",
    AP_FEATURE_EXAMPLES,
    ids=[f"{row[0]}-{k % 3}" for k, row in enumerate(AP_FEATURE_EXAMPLES)],
)
def test_ap_features_examples(name, u, v, expected):
    assert _pair_block(u, v)[AP_FEATURE_NAMES.index(name)] == expected


@pytest.mark.parametrize("u, v", [([], [-50]), ([-50], [])], ids=["u-empty", "v-empty"])
def test_ap_features_rejects_empty_inputs(u, v):
    # an empty trace cannot be built, so no pair reaches the kernel without readings
    with pytest.raises(ValueError, match="at least one reading"):
        _pair_block(u, v)


def test_ap_features_against_naive_oracle():
    x, y = [-45, -52, -67], [-71, -88, -90, -64, -55]
    assert np.allclose(_pair_block(x, y), naive_features(x, y), atol=1e-9)


def _feature_oracle_cases():
    """1,000 seeded integer trace pairs: RSSI-range values, and values on both
    sides of 0, with repeats within and across u and v."""
    rng = np.random.default_rng(31)
    for _ in range(700):
        n, m = rng.integers(1, 9, size=2)
        yield rng.integers(-100, 1, size=n).tolist(), rng.integers(-100, 1, size=m).tolist()
    for _ in range(300):
        n, m = rng.integers(1, 9, size=2)
        yield rng.integers(-90, 90, size=n).tolist(), rng.integers(-90, 90, size=m).tolist()


def test_ap_features_match_earlier_form_exactly():
    # == rather than allclose: a changed summation order shows in the last bit
    for u, v in _feature_oracle_cases():
        got, want = _pair_block(u, v), ap_features_oracle(Trace(u).unique, Trace(v).unique)
        assert got == want, (u, v)
        assert list(map(type, got)) == list(map(type, want)), (u, v)


def test_features_at_the_ends_of_the_reading_range():
    low, high = READING_RANGE
    for u, v in (([low], [low]), ([low, high], [0, -1]), ([high, low + 1], [low, 5, high])):
        assert _pair_block(u, v) == ap_features_oracle(Trace(u).unique, Trace(v).unique), (u, v)
    for bad in (low - 1, high + 1):
        with pytest.raises(ValueError, match=rf"^a reading must lie in \[{low}, {high}\], got {bad}$"):
            Trace([-50, bad])


def test_featurize_samples_rows_are_featurize_pair_across_chunks():
    # the longest unique-value sequence here holds 46 values, which makes chunks
    # of 178 (pair, AP) items, so 200 rows of 3 APs span four chunks
    rng = np.random.default_rng(8)
    points = [
        make_point(x, 1, {(ap, t): rng.integers(-100, 1, size=rng.integers(1, 61)).tolist()
                          for ap in (1, 2, 3) for t in (0, 1)})
        for x in (-3, -2, -1, 1, 2, 3)
    ]
    samples = np.column_stack([rng.integers(0, 6, size=(200, 2)), rng.integers(0, 2, size=(200, 2))])
    X = featurize_samples(points, samples)
    assert X.shape == (200, 18)
    assert featurize_samples(points, samples[:0]).shape == (0, 18)
    for bad in ((-1, 0, 0, 0), (0, 6, 0, 0)):
        with pytest.raises(IndexError, match="^sample rows must index the 6 points$"):
            featurize_samples(points, [bad])
    for (i, j, ta, tb), row in zip(samples.tolist(), X.tolist()):
        assert row == featurize_pair(points[i], points[j], ta, tb).tolist()
        want = [f for ap in (1, 2, 3)
                for f in ap_features_oracle(points[i].traces[(ap, ta)].unique,
                                            points[j].traces[(ap, tb)].unique)]
        assert row == want


def test_featurize_identical_traces_zeroes_md_and_dtw():
    a = make_point_same_traces(-17, 11, [-50, -60, -70])
    b = make_point_same_traces(-20, 5, [-50, -60, -70])
    vec = featurize_pair(a, b, 0, 0)
    assert vec.shape == (18,)
    for ap_slot in range(3):
        assert vec[6 * ap_slot + 0] == 0.0  # md
        assert vec[6 * ap_slot + 5] == 0.0  # dtw


def test_featurize_matches_per_operation_results():
    a = make_point(
        -17,
        11,
        {(1, 0): [-50, -60], (2, 0): [-45, -45, -52], (3, 0): [-80, -90]},
    )
    b = make_point(
        10,
        5,
        {(1, 0): [-70, -80], (2, 0): [-55], (3, 0): [-60, -61, -62]},
    )
    vec = featurize_pair(a, b, 0, 0)
    expected = (
        naive_features([-50, -60], [-70, -80])
        + naive_features([-45, -45, -52], [-55])
        + naive_features([-80, -90], [-60, -61, -62])
    )
    assert np.allclose(vec, expected, atol=1e-9)


def test_featurize_symmetry_and_ratio_invariant_fuzz():
    rng = np.random.default_rng(23)
    for _ in range(200):
        traces_a = {
            (ap, 0): list(rng.integers(-100, 0, size=rng.integers(1, 10)))
            for ap in (1, 2, 3)
        }
        traces_b = {
            (ap, 0): list(rng.integers(-100, 0, size=rng.integers(1, 10)))
            for ap in (1, 2, 3)
        }
        a = make_point(-5, 3, traces_a)
        b = make_point(4, 9, traces_b)
        ab = featurize_pair(a, b, 0, 0)
        ba = featurize_pair(b, a, 0, 0)
        assert np.array_equal(ab, ba)
        for ap_slot in range(3):
            block = ab[6 * ap_slot : 6 * ap_slot + 6]
            md, savg, smin, high, avg, dtw_value = block
            assert high >= avg  # every value <= -70 is also <= -50
            assert 0.0 <= high <= 1.0 and 0.0 <= avg <= 1.0
            assert md >= 0 and dtw_value >= 0
            assert smin <= savg


def test_duplicate_readings_change_nothing():
    a = make_point_same_traces(-3, 2, [-50, -60, -70])
    a_dup = make_point_same_traces(-3, 2, [-50, -60, -60, -70, -50])
    b = make_point_same_traces(6, 4, [-55, -66])
    assert np.array_equal(featurize_pair(a, b, 0, 0), featurize_pair(a_dup, b, 0, 0))


def test_missing_ap_trace_is_an_error():
    a = make_point(-3, 2, {(1, 0): [-50], (2, 0): [-50]})  # no AP 3
    b = make_point_same_traces(6, 4, [-55])
    with pytest.raises(ValueError, match="missing trace"):
        featurize_pair(a, b, 0, 0)


def test_feature_names_layout():
    assert len(FEATURE_NAMES) == 18
    assert FEATURE_NAMES[0] == "md_1"
    assert FEATURE_NAMES[5] == "dtw_1"
    assert FEATURE_NAMES[-1] == "dtw_3"
    assert FEATURE_CSV_HEADER.startswith("label,md_1,savg_1,smin_1,high_1,avg_1,dtw_1,md_2")


def test_feature_matrix_round_trip():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(7, 18))
    y = rng.integers(0, 2, size=7)
    buf = io.StringIO()
    write_feature_matrix(X, y, buf, comments={"seed": 3})
    buf.seek(0)
    X2, y2 = read_feature_matrix(buf)
    assert np.array_equal(X, X2)  # repr round-trips floats exactly
    assert np.array_equal(y, y2)


def test_feature_matrix_read_back_is_one_writable_float_buffer(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 18))
    y = rng.integers(0, 2, size=50)
    write_feature_matrix(X, y, tmp_path / "features.csv")
    X2, y2 = read_feature_matrix(tmp_path / "features.csv")
    assert X2.dtype == np.float64 and X2.shape == (50, 18)
    assert X2.flags.c_contiguous and X2.flags.writeable
    assert np.array_equal(X2, X)
    assert y2.dtype.kind == "i" and np.array_equal(y2, y)


def test_feature_matrix_text_is_float_repr():
    values = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16, -2.5]
    X = np.array([values * 3, [-v for v in values] * 3])
    buf = io.StringIO()
    write_feature_matrix(X, np.array([1, 0]), buf)
    # the text that formatting each value with repr(float(v)) gives
    row = "-0.0,5e-324,1e-300,0.30000000000000004,1e+16,-2.5"
    negated = "0.0,-5e-324,-1e-300,-0.30000000000000004,-1e+16,2.5"
    assert buf.getvalue().splitlines() == [
        FEATURE_CSV_HEADER,
        "1," + ",".join([row] * 3),
        "0," + ",".join([negated] * 3),
    ]
    # more rows than one writer chunk, few distinct values, -0.0 and 0.0 in every chunk
    rng = np.random.default_rng(5)
    X = rng.choice([*values, *(-v for v in values), 0.0, 1 / 3], size=(2 * CSV_CHUNK_LINES + 3, 18))
    X[::100, 0], X[1::100, 0] = -0.0, 0.0
    y = rng.integers(0, 2, len(X))
    buf = io.StringIO()
    write_feature_matrix(X, y, buf)
    assert buf.getvalue() == FEATURE_CSV_HEADER + "\n" + "".join(
        f"{label}," + ",".join(repr(float(v)) for v in row) + "\n" for label, row in zip(y, X))


def test_feature_matrix_errors():
    with pytest.raises(InputError):
        read_feature_matrix(io.StringIO("not,a,header\n"))
    bad_row = FEATURE_CSV_HEADER + "\n1," + ",".join(["0.0"] * 17) + "\n"
    with pytest.raises(InputError, match="line 2"):
        read_feature_matrix(io.StringIO(bad_row))
    bad_label = FEATURE_CSV_HEADER + "\n7," + ",".join(["0.0"] * 18) + "\n"
    with pytest.raises(InputError, match="label"):
        read_feature_matrix(io.StringIO(bad_label))
    bad_value = FEATURE_CSV_HEADER + "\n1," + ",".join(["0.0"] * 17 + ["inf"]) + "\n"
    with pytest.raises(InputError, match="non-finite"):
        read_feature_matrix(io.StringIO(bad_value))
    with pytest.raises(InputError, match="no samples"):
        read_feature_matrix(io.StringIO("# seed=3\n" + FEATURE_CSV_HEADER + "\n"))


@pytest.mark.parametrize("label,values,match", [
    ("1", ["0.0"] * 17, "^line 2: expected 19 fields, got 18$"),
    ("1", ["0.0"] * 17 + ["x"], "^line 2: unparseable field"),
    ("0.5", ["0.0"] * 18, "^line 2: unparseable field"),
    ("7", ["0.0"] * 18, "^line 2: label must be 0 or 1, got 7$"),
    ("-1", ["0.0"] * 18, "^line 2: label must be 0 or 1, got -1$"),
    ("1", ["0.0"] * 17 + ["-inf"], "^line 2: non-finite feature value$"),
    ("0", ["nan"] + ["0.0"] * 17, "^line 2: non-finite feature value$"),
    ("1", ["0.0"] * 17 + ["1_0"], "^line 2: unparseable field .*got '_'"),
])
def test_feature_matrix_rejects_bad_rows(label, values, match):
    messages = []
    for then in ("", "1_0\n"):  # alone, then before a line numpy refuses: the per-line parse
        text = f"{FEATURE_CSV_HEADER}\n{label},{','.join(values)}\n{then}"
        with pytest.raises(InputError, match=match) as err:
            read_feature_matrix(io.StringIO(text))
        assert err.value.line_no == 2
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("labels,value,match", [
    ([0, 2, 1], 0.0, "sample 2: label must be 0 or 1, got 2"),
    ([0, 1.7, 1], 0.0, "sample 2: label must be 0 or 1, got 1.7"),
    ([0, 1, 1], math.nan, "sample 2: non-finite feature value"),
    ([0, 1, 7], -math.inf, "sample 2: non-finite feature value"),  # the first bad sample
    ([0, 2, 1], math.inf, "sample 2: label must be 0 or 1, got 2"),  # by its first rule
    ([[0], [1], [1]], 0.0, "label count does not match row count"),  # once written as "[0]"
])
def test_feature_writer_refuses_what_the_reader_refuses(tmp_path, labels, value, match):
    X = np.zeros((3, 18))
    X[1, 4] = value
    path = tmp_path / "features.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        write_feature_matrix(X, np.array(labels), path)
    assert not path.exists()


def test_feature_values_too_large_to_standardize_are_refused():
    # the bound keeps every fit's sum of squared deviations finite: the largest
    # accepted magnitude standardizes without overflow, the bound itself is refused
    y = np.array([0, 0, 1, 1])
    limit = math.sqrt(sys.float_info.max / len(y)) / 4
    X = np.zeros((len(y), 18))
    X[0, 0], X[1, 0] = np.nextafter(limit, 0), -np.nextafter(limit, 0)
    buf = io.StringIO()
    write_feature_matrix(X, y, buf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaler = standardize_fit(read_feature_matrix(io.StringIO(buf.getvalue()))[0])
    assert np.isfinite(scaler.std).all()
    X[2, 5] = -limit
    buf = io.StringIO()
    write_feature_matrix(X, y, buf)
    with pytest.raises(InputError, match="^sample 3: .* too large to standardize$"):
        read_feature_matrix(io.StringIO(buf.getvalue()))
