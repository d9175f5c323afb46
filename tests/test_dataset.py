"""Trace ingestion, unique values, and pair-dataset construction."""

import io
import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_point, make_point_same_traces
from oracles import (
    ap_features_oracle, ingest_traces_oracle, pair_rows_oracle, read_feature_matrix_oracle,
)
from roomsense import dataset, features, ml
from roomsense._schema import ConfigError, InputError
from roomsense._seeds import derive_seed
from roomsense.cli import build_run_config
from roomsense.dataset import (
    READING_RANGE,
    TRACE_HEADER,
    Dataset,
    PairingConfig,
    PointRecord,
    Trace,
    build_pairs,
    ingest_traces,
    room_of,
    write_traces,
)
from roomsense.features import FEATURE_CSV_HEADER, featurize_pair, read_feature_matrix
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
        ("5,-inf,1,0,0,-50", "non-finite"),
        (f"5,5,1,0,0,{READING_RANGE[0] - 1}", "rssi must be >="),
        (f"5,5,1,0,{2**63},-50", "trial and seq must be <="),
        ("5,5,1,0,0,-5_0", "ASCII without '_'"),
    ],
)
def test_ingest_rejects_bad_rows(row, match):
    messages = []
    for then in ("", "1_0\n"):  # alone, then before a line numpy refuses: the per-line parse
        with pytest.raises(InputError, match=match) as err:
            ingest_traces(io.StringIO(HEADER + row + "\n" + then))
        assert err.value.line_no == 2
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_ingest_accepts_readings_down_to_the_reading_range():
    low = READING_RANGE[0]
    records = ingest_traces(io.StringIO(HEADER + f"5,5,1,0,0,{low}\n"))
    assert records[0].traces[(1, 0)].values == (low,)
    # -10**400 once reached the features and failed there, -10**30 passed
    for rssi in (low - 1, -10**30, -10**400):
        with pytest.raises(InputError, match=f"^line 2: rssi must be >= {low} dBm, got {rssi}$"):
            ingest_traces(io.StringIO(HEADER + f"5,5,1,0,0,{rssi}\n"))


def test_ingest_rejects_duplicate_key():
    text = HEADER + "5,5,1,0,0,-50\n5,5,1,0,0,-51\n"
    with pytest.raises(InputError, match="duplicate") as err:
        ingest_traces(io.StringIO(text))
    assert err.value.line_no == 3


def test_ingest_requires_header():
    with pytest.raises(InputError, match="header"):
        ingest_traces(io.StringIO("5,5,1,0,0,-50\n"))


def test_write_ingest_round_trip(tmp_path):
    points = [
        make_point_same_traces(-17.25, 11.5, [-50, -60, -50], trials=(0, 1)),
        make_point_same_traces(3.125, 7.0, [-70, -72], trials=(0, 1)),
    ]
    path = tmp_path / "traces.csv"
    write_traces(points, path, comments={"origin": "unit-test"})
    assert ingest_traces(path) == sorted(points, key=lambda p: p.point)


@pytest.mark.parametrize("values, x", [([5, -50], 1.0), ([-50], float("nan")),
                                       ([0, READING_RANGE[0]], 1.0)],
                         ids=["rssi-5", "point-x-nan", "rssi-0-and-floor"])
def test_written_traces_read_back_or_are_refused_before_the_file_exists(tmp_path, values, x):
    path = tmp_path / "traces.csv"
    try:
        points = [make_point_same_traces(x, 1.0, values)]
        write_traces(points, path)
    except ValueError:
        assert not path.exists()
        return
    assert ingest_traces(path) == points


def test_point_record_refuses_a_non_finite_coordinate():
    for point in ((float("nan"), 1.0), (1.0, float("inf"))):
        with pytest.raises(ValueError, match="non-finite coordinate"):
            make_point_same_traces(*point, [-50])


def test_write_traces_names_the_positive_reading(tmp_path):
    points = [make_point_same_traces(-1.5, 2.0, [-50]),
              PointRecord((3.0, 4.0), {(1, 0): Trace([-50]), (2, 7): Trace([-60, 5, 9])})]
    path = tmp_path / "traces.csv"
    with pytest.raises(ValueError, match=re.escape(
            "point (3.0, 4.0), (ap_id, trial) (2, 7): rssi is reported in negative dBm, got 9")):
        write_traces(points, path)
    assert not path.exists()
    # every other record that ingest_traces would refuse, or read back as another record
    good = make_point_same_traces(-1.5, 2.0, [-50])
    refused = {
        ", (ap_id, trial) (7, 0): ap_id must be one of (1, 2, 3)": {(7, 0): Trace([-50])},
        ", (ap_id, trial) (1.0, 0): ap_id must be one of (1, 2, 3)": {(1.0, 0): Trace([-50])},
        ", (ap_id, trial) (1, -2): trial must be an integer from 0 to 9223372036854775807":
            {(1, -2): Trace([-50])},
        ", (ap_id, trial) (1, 9223372036854775808): trial must be an integer from 0 to ":
            {(1, 2**63): Trace([-50])},
        ": a record without traces": {},
    }
    for message, traces in refused.items():
        with pytest.raises(ValueError, match=re.escape(f"point (3.0, 4.0){message}")):
            write_traces([good, PointRecord((3.0, 4.0), traces)], path)
        assert not path.exists()
    with pytest.raises(ValueError, match=re.escape("point (-1.5, 2.0): two records at this point")):
        write_traces([good, make_point(-1.5, 2.0, {(1, 1): [-60]})], path)
    assert not path.exists()
    # integer keys of other types are written as the ints they equal
    write_traces([make_point(-1.5, 2.0, {(np.int64(1), True): [-50]})], path)
    assert ingest_traces(path)[0].traces == {(1, 1): Trace([-50])}


def test_unreadable_paths_raise_the_format_error_chained_from_the_cause(tmp_path):
    not_utf_8 = tmp_path / "not-utf-8"
    not_utf_8.write_bytes(b"point_x,point_y,ap_id,trial,seq,rssi_dbm\n\xff\n")
    readers = (ingest_traces, read_feature_matrix, ml.load_model)
    causes = ((tmp_path / "missing", FileNotFoundError), (tmp_path, IsADirectoryError),
              (not_utf_8, UnicodeDecodeError))
    for read in readers:
        for path, cause in causes:
            # a CSV reader names the line of the first byte that is not UTF-8
            line = "line 2: " if path == not_utf_8 and read is not ml.load_model else ""
            prefix = f"^{line}cannot read {re.escape(str(path))}: "
            with pytest.raises(InputError, match=prefix) as raised:
                read(path)
            assert isinstance(raised.value.__cause__, cause)


def test_non_utf_8_byte_is_named_by_its_line_and_file_position(tmp_path):
    # the reader decodes in chunks; the message counts from the start of the file
    rows = "".join(f"1,1,1,0,{seq},-50\n" for seq in range(2000))
    data = ("point_x,point_y,ap_id,trial,seq,rssi_dbm\n" + rows).encode()
    at = data.index(b"1,1,1,0,1500,")
    path = tmp_path / "traces.csv"
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(InputError, match="byte 0xff in position 24431: ") as raised:
        ingest_traces(path)
    assert raised.value.line_no == 1502
    assert str(raised.value).startswith(f"line 1502: cannot read {path}: ")


# (column, replacement) corruptions of one data row: the refusal kinds of
# test_ingest_rejects_bad_rows and REFUSED_RUNS, plus text that numpy's parser
# reads differently from Python's int and float (both readers refuse it)
TRACE_CORRUPTIONS = [
    (5, None), (5, "-50,7"), (2, "one"), (5, "-50.5"), (5, "10"), (5, "99"), (0, "0"),
    (2, "9"), (0, "nan"), (1, "-inf"), (3, "-1"), (4, "-1"), (4, "x"),
    (5, str(READING_RANGE[0] - 1)), (5, str(-10**30)), (0, "5\x1c"), (5, "-5\u30e9"),
]
FEATURE_CORRUPTIONS = [
    (18, None), (18, "1.0,2.0"), (0, "7"), (0, "x"), (3, "inf"), (7, "nan"), (9, "1..5"),
    (4, "2\x1f"), (0, "1\u30e9"),
]
# text that Python's int and float read but the array readers refuse
NARROWED = {"underscore": "1_0", "non-ascii digit": "\u0661", "non-ascii space": "\xa01"}


def _outcome(read, path):
    """`read(path)`, or its InputError as (message, line number)."""
    try:
        return read(path)
    except InputError as exc:
        return str(exc), exc.line_no


def _variant(rng, rows, header, corruptions):
    """File text of `rows` (lists of field strings) shuffled or interleaved, with
    comment and blank lines, LF or CRLF endings, and up to two corrupted rows."""
    rows = [list(row) for row in rows]
    if rng.random() < 0.5:
        rows = [rows[k] for k in rng.permutation(len(rows))]
    else:  # interleave five runs of rows (a trace file's points): the k-th row of each, ...
        rows = [rows[k] for k in np.arange(len(rows)).reshape(5, -1).T.ravel()]
    for _ in range(rng.integers(0, 3)):
        at = int(rng.integers(len(rows)))
        if rng.random() < 0.2:  # a second reading of another row's key
            rows[at] = rows[int(rng.integers(len(rows)))][:-1] + ["-33"]
        else:
            column, text = corruptions[rng.integers(len(corruptions))]
            rows[at] = rows[at][:column] + ([] if text is None else [text]) + rows[at][column + 1:]
    lines = [",".join(row) for row in rows]
    for _ in range(rng.integers(0, 4)):
        lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(["", "# note", "  "])))
    end = "\r\n" if rng.random() < 0.5 else "\n"
    return end.join(["# seed=1", header, *lines]) + end


def test_array_readers_match_the_row_level_oracles(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "CSV_CHUNK_LINES", 5)  # small files span many chunks
    rng = np.random.default_rng(28)
    coordinates = [(repr(float(x)), repr(float(y))) for x, y in
                   zip(rng.uniform(1, 30, 5) * [-1, 1, -1, 1, 1], rng.uniform(-9, 9, 5))]
    coordinates[4] = ("7.5", "0.0")  # its first row in key order says "-0.0": one point
    trace_rows = [[*coordinates[p], str(ap), str(trial), str(seq), str(-rng.integers(40, 90))]
                  for p in range(5) for ap in (1, 2, 3) for trial in (0, 1) for seq in range(3)]
    trace_rows[4 * 18][1] = "-0.0"
    features_X = rng.choice([0.0, -0.0, 0.1 + 0.2, 1 / 3, 64.0, 1e-300], size=(40, 18))
    feature_rows = [[str(label), *map(repr, row)] for label, row in
                    zip(rng.integers(0, 2, 40).tolist(), features_X.tolist())]
    kinds = {"trace": (ingest_traces, ingest_traces_oracle, trace_rows, TRACE_HEADER,
                       TRACE_CORRUPTIONS),
             "feature": (read_feature_matrix, read_feature_matrix_oracle, feature_rows,
                         FEATURE_CSV_HEADER, FEATURE_CORRUPTIONS)}
    refused = {"trace": 0, "feature": 0}
    for case in range(160):
        kind = ("trace", "feature")[case % 2]
        read, oracle, rows, header, corruptions = kinds[kind]
        path = tmp_path / f"{case}.csv"
        path.write_bytes(_variant(rng, rows, header, corruptions).encode())
        got, want = _outcome(read, path), _outcome(oracle, path)
        if isinstance(want, tuple) and isinstance(want[0], str):
            assert got == want, (case, path.read_text())
            refused[kind] += 1
        elif kind == "trace":
            assert repr([(r.point, sorted(r.traces.items())) for r in got]) == repr(
                [(r.point, sorted(r.traces.items())) for r in want])
            assert all(list(r.traces) == sorted(r.traces) for r in got)
        else:
            assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
            assert np.array_equal(got[1], want[1]) and got[0].flags.c_contiguous
    assert min(refused.values()) >= 20 and max(refused.values()) <= 70

    # narrowed inputs: the oracles read them, the array readers refuse the line
    trace_text = f"{TRACE_HEADER}\n5.0,1.0,1,0,0,-50\n"
    feature_text = FEATURE_CSV_HEADER + "\n1" + ",0.5" * 18 + "\n"
    for name, text in NARROWED.items():
        for read, oracle, body in ((ingest_traces, ingest_traces_oracle,
                                    trace_text.replace("1.0,", text + ",")),
                                   (read_feature_matrix, read_feature_matrix_oracle,
                                    feature_text.replace(",0.5\n", f",{text}\n"))):
            path = tmp_path / "narrowed.csv"
            path.write_text(body, encoding="utf-8")
            oracle(path)
            message, line_no = _outcome(read, path)
            assert line_no == 2 and message.startswith("line 2: unparseable field (numbers are "
                                                        "ASCII without '_', got "), (name, message)
    for field in ("trial", "seq"):
        path.write_text(trace_text.replace(",0,0,", ",0,9223372036854775808," if field == "seq"
                                           else ",9223372036854775808,0,"))
        assert ingest_traces_oracle(path)
        with pytest.raises(InputError, match="^line 2: trial and seq must be <= "
                                             "9223372036854775807, got "):
            ingest_traces(path)


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
    assert ds.y.tolist() == [1]


def test_build_pairs_default_counts():
    points = _two_room_points(per_room=10, trials=tuple(range(10)))
    ds = build_pairs(points, PairingConfig(), seed=9)
    assert ds.samples.shape == (300, 4)
    assert ds.X.shape == (300, 18)
    assert ds.y.tolist() == [1] * 100 + [0] * 200


def test_build_pairs_labels_match_rooms():
    points = _two_room_points(per_room=3, trials=(0, 1))
    ds = build_pairs(points, PairingConfig(n_positive=5, n_negative=5), seed=2)
    for (i, j, _, _), label in zip(ds.samples.tolist(), ds.y.tolist()):
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
    pair_keys = [(i, j) for i, j, _, _ in ds.samples[ds.y == 1].tolist()]
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
    featurize_samples = features.featurize_samples

    def counted(*args, **kwargs):
        calls.append(args)
        return featurize_samples(*args, **kwargs)

    monkeypatch.setattr(features, "featurize_samples", counted)
    one_room = [
        make_point_same_traces(-5, 4, [-60]),
        make_point_same_traces(-7, 6, [-62]),
    ]
    # the CLI prints these messages as they are raised, and exits 3 on a ConfigError
    with pytest.raises(ConfigError, match="^n_negative: 1 samples requested but only 0 distinct"):
        build_pairs(one_room, PairingConfig(n_positive=1, n_negative=1), seed=0)
    points = _two_room_points(per_room=2, trials=(0,))
    with pytest.raises(ConfigError, match="^n_positive: 50 samples requested but only 2 distinct"):
        build_pairs(points, PairingConfig(n_positive=50, n_negative=1), seed=0)
    assert calls == []  # both counts are checked before any pair is featurized
    build_pairs(points, PairingConfig(n_positive=2, n_negative=1), seed=0)
    assert len(calls) == 1  # the counted kernel is the one build_pairs calls


def test_build_pairs_requires_two_points_per_room():
    points = [
        make_point_same_traces(-5, 4, [-60]),
        make_point_same_traces(5, 4, [-50]),
        make_point_same_traces(6, 5, [-51]),
    ]
    # a file that cannot pair is an InputError of the whole file, exit 2 from the CLI
    with pytest.raises(InputError, match=r"^room 'left' has 1 point\(s\); need >= 2$"):
        build_pairs(points, PairingConfig(n_positive=1, n_negative=1), seed=0)
    with pytest.raises(InputError, match="^no points to pair$"):
        build_pairs([], PairingConfig(n_positive=1, n_negative=1), seed=0)


def test_build_pairs_random_trial_matching():
    points = _two_room_points(per_room=2, trials=(0, 1))
    cfg = PairingConfig(n_positive=2, n_negative=4, trial_matching="random")
    ds = build_pairs(points, cfg, seed=6)
    assert ds.y.tolist() == [1] * 2 + [0] * 4


def _uneven_points():
    points = generate(SimConfig(devices_per_room=4, trials=3, seed=8))
    # one point lacks trial 0 on AP 2, so its trials are {1, 2} and the others' {0, 1, 2}
    uneven = points[1]
    points[1] = PointRecord(uneven.point, {k: t for k, t in uneven.traces.items() if k != (2, 0)})
    return points


@pytest.mark.parametrize("trial_matching", ["equal", "random"])
def test_build_pairs_draws_the_listed_combinations(trial_matching):
    points = _uneven_points()
    n_pos, n_neg = {"equal": (33, 44), "random": (99, 132)}[trial_matching]
    # a few of each, every combination, and none of one class
    for counts in ((5, 7), (n_pos, n_neg), (0, 4), (3, 0)):
        for seed in (0, 1, 7):
            ds = build_pairs(points, PairingConfig(*counts, trial_matching), seed=seed)
            assert ds.samples.dtype == np.int64
            assert ds.samples.tolist() == pair_rows_oracle(points, *counts, trial_matching, seed)
    for counts in ((n_pos + 1, 0), (0, n_neg + 1)):
        with pytest.raises(ConfigError, match=f"only {max(counts) - 1} distinct"):
            build_pairs(points, PairingConfig(*counts, trial_matching), seed=0)


def test_build_pairs_memory_grows_with_pairs_not_combinations():
    # 200 points: 19,900 point pairs x 100 trial assignments; listing them took ~230 MB
    points = generate(SimConfig(devices_per_room=100))
    tracemalloc.start()
    try:
        build_pairs(points, PairingConfig(1, 1, "random"), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_build_pairs_peak_at_building_scale(monkeypatch):
    # building-featurize's 100 points and 4,000/8,000 pairs.  The per-pair loop
    # this kernel replaced peaked at 5.16 MB here, the kernel in one chunk at
    # 12.6 MB.  DTW's memory lasts one call, so it is stubbed out: under
    # tracemalloc its 36,000 calls would take seconds.
    monkeypatch.setattr(features, "dtw_distance", lambda x, y: 0.0)
    points = generate(SimConfig(devices_per_room=50, seed=1))
    build_pairs(points, PairingConfig(1, 1), seed=0)  # numpy's first calls allocate caches
    tracemalloc.start()
    try:
        build_pairs(points, PairingConfig(4000, 8000), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.25 * 2**20


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


def test_pair_features_are_featurize_pair_floats():
    points = generate(SimConfig(devices_per_room=4, trials=3, seed=5))
    cfg = PairingConfig(n_positive=10, n_negative=14, trial_matching="random")
    ds = build_pairs(points, cfg, seed=2)
    assert any(ta != tb for _, _, ta, tb in ds.samples.tolist())
    for (i, j, ta, tb), row in zip(ds.samples.tolist(), ds.X.tolist()):
        a, b = ds.points[i], ds.points[j]
        # == per AP against the earlier per-AP form, on freshly deduplicated traces
        want = [f for ap in (1, 2, 3)
                for f in ap_features_oracle(Trace(a.traces[(ap, ta)].values).unique,
                                            Trace(b.traces[(ap, tb)].values).unique)]
        assert row == want
        assert row == featurize_pair(a, b, ta, tb).tolist()


def test_dataset_invariants():
    samples, X, y = np.zeros((2, 4), dtype=np.int64), np.zeros((2, 18)), np.array([1, 0])
    with pytest.raises(ValueError, match=r"shapes \(\(2, 4\), \(2, 7\), \(2,\)\)"):
        Dataset((), samples, X[:, :7], y)
    with pytest.raises(ValueError, match="labels"):
        Dataset((), samples, X, np.array([1, 2]))
    ds = Dataset((), samples, X, y)
    assert ds.feature_matrix() is X and ds.labels() is y and ds.counts == (1, 1)
    with pytest.raises(ValueError, match="read-only"):
        X[0, 0] = 1.0
