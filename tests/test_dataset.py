"""Trace ingestion, unique values, and pair-dataset construction."""

import io

import numpy as np
import pytest

from conftest import make_point_same_traces
from roomsense import features
from roomsense._seeds import derive_seed
from roomsense.cli import build_run_config
from roomsense.dataset import (
    Dataset,
    PairingConfig,
    Trace,
    TraceFormatError,
    build_pairs,
    ingest_traces,
    room_of,
    write_traces,
)
from roomsense.simulator import SimConfig, generate

HEADER = "point_x,point_y,ap_id,trial,seq,rssi_dbm\n"


def test_room_of():
    assert room_of(-17) == "left"
    assert room_of(17) == "right"
    with pytest.raises(ValueError):
        room_of(0)


def test_trace_must_be_nonempty():
    with pytest.raises(ValueError):
        Trace([])


def test_ingest_empty_stream():
    assert ingest_traces(io.StringIO(HEADER)) == []


def test_ingest_single_row():
    records = ingest_traces(io.StringIO(HEADER + "17,11,1,0,0,-50\n"))
    assert len(records) == 1
    record = records[0]
    assert record.point == (17.0, 11.0)
    assert record.room == "right"
    assert record.traces[(1, 0)].values == (-50,)


def test_ingest_groups_by_trial():
    # one point, AP 1, trials 0 and 1 with three readings each
    rows = [
        "-17,11,1,0,0,-50",
        "-17,11,1,0,1,-51",
        "-17,11,1,0,2,-52",
        "-17,11,1,1,0,-60",
        "-17,11,1,1,1,-61",
        "-17,11,1,1,2,-62",
    ]
    records = ingest_traces(io.StringIO(HEADER + "\n".join(rows) + "\n"))
    assert len(records) == 1
    record = records[0]
    assert record.room == "left"
    assert set(record.traces) == {(1, 0), (1, 1)}
    assert record.traces[(1, 0)].values == (-50, -51, -52)
    assert record.traces[(1, 1)].values == (-60, -61, -62)


def test_ingest_orders_by_seq_not_file_order():
    rows = ["5,5,1,0,2,-52", "5,5,1,0,0,-50", "5,5,1,0,1,-51"]
    records = ingest_traces(io.StringIO(HEADER + "\n".join(rows) + "\n"))
    assert records[0].traces[(1, 0)].values == (-50, -51, -52)


def test_ingest_skips_comments_and_blank_lines():
    text = "# generated\n\n" + HEADER + "# mid comment\n5,5,1,0,0,-50\n"
    records = ingest_traces(io.StringIO(text))
    assert len(records) == 1


@pytest.mark.parametrize(
    "row,match",
    [
        ("5,5,1,0,0", "expected 6 fields"),
        ("5,5,one,0,0,-50", "unparseable"),
        ("5,5,1,0,0,-50.5", "unparseable"),
        ("5,5,1,0,0,10", "negative dBm"),
        ("0,5,1,0,0,-50", "partition wall"),
        ("5,5,9,0,0,-50", "ap_id"),
        ("nan,5,1,0,0,-50", "non-finite"),
        ("5,5,1,-1,0,-50", "trial"),
        ("5,5,1,0,-1,-50", "seq"),
    ],
)
def test_ingest_rejects_bad_rows(row, match):
    with pytest.raises(TraceFormatError, match=match) as err:
        ingest_traces(io.StringIO(HEADER + row + "\n"))
    assert err.value.line_no == 2


def test_ingest_rejects_duplicate_key():
    text = HEADER + "5,5,1,0,0,-50\n5,5,1,0,0,-51\n"
    with pytest.raises(TraceFormatError, match="duplicate") as err:
        ingest_traces(io.StringIO(text))
    assert err.value.line_no == 3


def test_ingest_requires_header():
    with pytest.raises(TraceFormatError, match="header"):
        ingest_traces(io.StringIO("5,5,1,0,0,-50\n"))


def test_write_ingest_round_trip(tmp_path):
    points = [
        make_point_same_traces(-17.25, 11.5, [-50, -60, -50], trials=(0, 1)),
        make_point_same_traces(3.125, 7.0, [-70, -72], trials=(0, 1)),
    ]
    path = tmp_path / "traces.csv"
    write_traces(points, path, comments={"origin": "unit-test"})
    assert ingest_traces(path) == sorted(points, key=lambda p: p.point)


def test_trace_unique_examples():
    assert Trace([-50, -50, -50]).unique == (-50,)
    assert Trace([-50, -60, -50, -70]).unique == (-50, -60, -70)
    assert Trace([-70, -60, -50]).unique == (-70, -60, -50)
    with pytest.raises(ValueError):
        Trace([])


def test_trace_unique_leaves_equality_and_repr_alone():
    a, b = Trace([-50, -60, -50]), Trace((-50, -60, -50))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Trace(values=(-50, -60, -50))"
    assert Trace([-50, -60]) != a  # same unique values, different readings


def test_trace_unique_is_subsequence():
    rng = np.random.default_rng(5)
    for _ in range(100):
        values = list(rng.integers(-90, -40, size=rng.integers(1, 30)))
        uniq = Trace(values).unique
        assert len(set(uniq)) == len(uniq)
        it = iter(values)
        assert all(v in it for v in uniq)  # subsequence check


def _two_room_points(per_room=2, trials=(0,)):
    points = []
    for i in range(per_room):
        points.append(make_point_same_traces(-5.0 - i, 4.0, [-60, -62, -61], trials=trials))
        points.append(make_point_same_traces(5.0 + i, 4.0, [-50, -52, -51], trials=trials))
    return points


def test_build_pairs_single_positive_pair():
    points = [
        make_point_same_traces(-5, 4, [-60]),
        make_point_same_traces(-7, 6, [-62]),
    ]
    ds = build_pairs(points, PairingConfig(n_positive=1, n_negative=0), seed=1)
    assert ds.samples.tolist() == [[0, 1, 0, 0]]
    assert ds.counts == (1, 0)
    assert ds.labels().tolist() == [1]


def test_build_pairs_default_counts():
    points = _two_room_points(per_room=10, trials=tuple(range(10)))
    ds = build_pairs(points, PairingConfig(), seed=9)
    assert ds.samples.shape == (300, 4)
    assert ds.feature_matrix().shape == (300, 18)
    assert ds.counts == (100, 200)
    assert ds.labels().tolist() == [1] * 100 + [0] * 200


def test_build_pairs_labels_match_rooms():
    points = _two_room_points(per_room=3, trials=(0, 1))
    ds = build_pairs(points, PairingConfig(n_positive=5, n_negative=5), seed=2)
    for (i, j, _, _), label in zip(ds.samples.tolist(), ds.labels().tolist()):
        assert label == int(ds.points[i].room == ds.points[j].room)


def test_build_pairs_deterministic():
    points = _two_room_points(per_room=4, trials=(0, 1, 2))
    cfg = PairingConfig(n_positive=10, n_negative=10)
    a, b, c = (build_pairs(points, cfg, seed=seed) for seed in (3, 3, 4))
    assert np.array_equal(a.samples, b.samples) and np.array_equal(a.X, b.X)
    assert not np.array_equal(a.samples, c.samples)


def test_build_pairs_repeats_point_pairs_beyond_distinct_count():
    # 10 points per room -> 90 same-room pairs < 100 positives requested,
    # so some point pairs must recur with different trial assignments
    points = _two_room_points(per_room=10, trials=tuple(range(10)))
    ds = build_pairs(points, PairingConfig(), seed=11)
    pair_keys = [(i, j) for i, j, _, _ in ds.samples[ds.labels() == 1].tolist()]
    assert len(set(pair_keys)) < len(pair_keys)


def test_build_pairs_distinct_pair_inventory():
    points = _two_room_points(per_room=10, trials=(0,))
    rooms = {}
    for p in points:
        rooms.setdefault(p.room, []).append(p)
    same = sum(len(v) * (len(v) - 1) // 2 for v in rooms.values())
    cross = len(rooms["left"]) * len(rooms["right"])
    assert same == 90
    assert cross == 100


def test_build_pairs_unreachable_counts(monkeypatch):
    calls = []
    featurize_pair = features.featurize_pair

    def counted(*args, **kwargs):
        calls.append(args)
        return featurize_pair(*args, **kwargs)

    monkeypatch.setattr(features, "featurize_pair", counted)
    one_room = [
        make_point_same_traces(-5, 4, [-60]),
        make_point_same_traces(-7, 6, [-62]),
    ]
    with pytest.raises(ValueError, match="negative"):
        build_pairs(one_room, PairingConfig(n_positive=1, n_negative=1), seed=0)
    points = _two_room_points(per_room=2, trials=(0,))
    with pytest.raises(ValueError, match="positive"):
        build_pairs(points, PairingConfig(n_positive=50, n_negative=1), seed=0)
    assert calls == []  # both counts are checked before any pair is featurized


def test_build_pairs_requires_two_points_per_room():
    points = [
        make_point_same_traces(-5, 4, [-60]),
        make_point_same_traces(5, 4, [-50]),
        make_point_same_traces(6, 5, [-51]),
    ]
    with pytest.raises(ValueError, match="need >= 2"):
        build_pairs(points, PairingConfig(n_positive=1, n_negative=1), seed=0)
    with pytest.raises(ValueError, match="no points to pair"):
        build_pairs([], PairingConfig(n_positive=0, n_negative=0), seed=0)


def test_build_pairs_random_trial_matching():
    points = _two_room_points(per_room=2, trials=(0, 1))
    cfg = PairingConfig(n_positive=2, n_negative=4, trial_matching="random")
    ds = build_pairs(points, cfg, seed=6)
    assert ds.counts == (2, 4)


def test_paper_default_pairs_call_dtw_once_per_ap(monkeypatch):
    # the counts a traced `benchmark --seed 42` reads as dtw.calls and dtw.cells
    cfg = build_run_config({"seed": 42})
    cells = []
    dtw_distance = features.dtw_distance

    def counted(x, y):
        cells.append(len(x) * len(y))
        return dtw_distance(x, y)

    monkeypatch.setattr(features, "dtw_distance", counted)
    build_pairs(generate(cfg.sim), cfg.pairing, seed=derive_seed(42, "featurize"))
    assert len(cells) == 900
    assert sum(cells) == 36183


def test_pair_features_are_featurize_pair_floats(monkeypatch):
    points = generate(SimConfig(devices_per_room=4, trials=3, seed=5))
    drawn = []
    featurize_pair = features.featurize_pair

    def recorded(a, b, trial_a, trial_b):
        drawn.append((a, b, trial_a, trial_b))
        return featurize_pair(a, b, trial_a, trial_b)

    monkeypatch.setattr(features, "featurize_pair", recorded)
    cfg = PairingConfig(n_positive=10, n_negative=14, trial_matching="random")
    ds = build_pairs(points, cfg, seed=2)
    assert len(drawn) == len(ds.samples)
    for (i, j, ta, tb), row, (a, b, trial_a, trial_b) in zip(ds.samples.tolist(), ds.X, drawn):
        assert (ds.points[i], ds.points[j], ta, tb) == (a, b, trial_a, trial_b)
        assert row.tolist() == featurize_pair(a, b, trial_a, trial_b).tolist()


def test_dataset_invariants():
    samples, X, y = np.zeros((2, 4), dtype=np.int64), np.zeros((2, 18)), np.array([1, 0])
    with pytest.raises(ValueError, match=r"shapes \(\(2, 4\), \(2, 7\), \(2,\)\)"):
        Dataset((), samples, X[:, :7], y)
    with pytest.raises(ValueError, match="labels"):
        Dataset((), samples, X, np.array([1, 2]))
    ds = Dataset((), samples, X, y)
    assert ds.feature_matrix() is X and ds.labels() is y
    with pytest.raises(ValueError, match="read-only"):
        X[0, 0] = 1.0
