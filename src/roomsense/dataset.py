"""RSSI trace records, trace-file I/O, and labeled pair-dataset construction.

Two devices form a positive ("adjacent") sample when they sit in the same
room, a negative ("distant") one otherwise; x < 0 is the left room, x > 0 the
right one.  A pair dataset is arrays: (i, j, trial_a, trial_b) index rows
into the sorted point records, the n x 18 feature matrix, and the labels.
Each CSV format states its row rules once, as a table of (check, message)
pairs (`_TRACE_RULES` here, `features._FEATURE_RULES`) that `read_csv_chunks`
checks on numpy's parsed chunks and on its per-line path alike.
"""

import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from numbers import Integral
from pathlib import Path

import numpy as np

from ._schema import ConfigError, InputError
from ._seeds import generator

ROOM_LEFT = "left"
ROOM_RIGHT = "right"
AP_IDS = (1, 2, 3)

TRACE_HEADER = "point_x,point_y,ap_id,trial,seq,rssi_dbm"

# The feature kernel holds readings in this integer type, so its range is the
# range of readings a Trace accepts.
READING_DTYPE = np.int16
READING_RANGE = (int(np.iinfo(READING_DTYPE).min), int(np.iinfo(READING_DTYPE).max))

# CSV files are read and written this many data lines at a time: 2,048 ran no
# faster and raised a building file's peak RSS by about 5 MB.
CSV_CHUNK_LINES = 512
# `np.loadtxt` skips these ASCII separators around a number as spaces; Python's
# int and float refuse them.
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def room_of(x) -> str:
    """Room label for an x coordinate; x = 0 (the partition wall) is invalid."""
    if x == 0:
        raise ValueError("x = 0 lies on the partition wall and belongs to no room")
    return ROOM_LEFT if x < 0 else ROOM_RIGHT


@dataclass(frozen=True, slots=True)
class Trace:
    """Ordered RSSI sequence of one (access point, trial) at a device point.

    `unique` holds its distinct values in first-occurrence order, computed
    once here; order matters because it feeds dynamic time warping.  Slots
    keep a building's thousands of traces from each carrying a dict.  Every
    reading must lie in READING_RANGE.
    """

    values: tuple[int, ...]
    unique: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(map(int, self.values))
        if not values:
            raise ValueError("a trace must hold at least one reading")
        low, high = READING_RANGE
        if min(values) < low or max(values) > high:
            bad = next(v for v in values if not low <= v <= high)
            raise ValueError(f"a reading must lie in [{low}, {high}], got {bad}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "unique", tuple(dict.fromkeys(values)))


@dataclass(frozen=True)
class PointRecord:
    """A device location with its traces, keyed by (ap_id, trial)."""

    point: tuple[float, float]
    traces: dict[tuple[int, int], Trace]

    def __post_init__(self):
        object.__setattr__(self, "point", (float(self.point[0]), float(self.point[1])))
        if not all(map(math.isfinite, self.point)):
            raise ValueError(f"non-finite coordinate {self.point}")
        room_of(self.point[0])  # rejects a point on the partition wall

    @property
    def room(self) -> str:
        return room_of(self.point[0])

    def trial_ids(self) -> list[int]:
        """Trials for which this point has a trace from every access point."""
        per_ap = ({t for (a, t) in self.traces if a == ap} for ap in AP_IDS)
        return sorted(set.intersection(*per_ap))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Pair samples as read-only arrays: (i, j, trial_a, trial_b) rows into `points`, X and y."""

    points: tuple[PointRecord, ...]
    samples: np.ndarray
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        shapes = (self.samples.shape, self.X.shape, self.y.shape)
        if shapes != ((len(self.y), 4), (len(self.y), 18), (len(self.y),)):
            raise ValueError(f"expected n x 4, n x 18 and n-long arrays, got shapes {shapes}")
        if not np.isin(self.y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        for array in (self.samples, self.X, self.y):
            array.flags.writeable = False

    @property
    def counts(self) -> tuple[int, int]:
        """(positive, negative) class counts."""
        return int(self.y.sum()), int((self.y == 0).sum())

    def feature_matrix(self) -> np.ndarray:
        return self.X

    def labels(self) -> np.ndarray:
        return self.y


# ---------------------------------------------------------------------------
# CSV files (traces, feature matrices, KDE curves, tables): UTF-8, LF line
# endings, '#'-prefixed comment lines ignored, then a fixed header line.


@contextmanager
def csv_reader(source, header):
    """The data lines of `source` as (line number, stripped text), after its header.

    `source` may be a path, an open text file, or an iterable of lines.
    Blank and '#' comment lines are skipped; a missing or different header
    raises `InputError(line_no, message)`, and so does a path that cannot be
    read (line None) or decoded as UTF-8 (the line of its first bad byte),
    chained from the cause.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, encoding="utf-8", newline="") as fh:
                with csv_reader(fh, header) as rows:
                    yield rows
        except (OSError, UnicodeDecodeError) as exc:
            line_no = None
            if isinstance(exc, UnicodeDecodeError):  # raised per chunk: find the byte in the file
                data = Path(source).read_bytes()
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError as in_file:
                    line_no, exc = data.count(b"\n", 0, in_file.start) + 1, in_file
            raise InputError(line_no, f"cannot read {source}: {exc}") from exc
        return
    lines = ((n, line) for n, raw in enumerate(source, start=1)
             if (line := raw.strip()) and line[0] != "#")
    line_no, first = next(lines, (1, None))
    if first != header:
        raise InputError(line_no, f"expected header {header!r}")
    yield lines


def read_csv_chunks(source, header, dtype, rules):
    """Yield the data rows of CSV `source` as (line numbers, `dtype` records) chunks.

    A file's numbers are Python's int and float syntax in ASCII, without '_'.
    `rules` are the format's row rules, (check, message) pairs in the order a
    row is checked: `check(rows)` says which rows of a mapping by field name
    pass, whether a chunk's records or one line's Python values, and
    `message(row)` names one line's fault.  Chunks of CSV_CHUNK_LINES lines are
    parsed by one `np.loadtxt` call each and kept when every row passes every
    rule.  A chunk that numpy refuses, that breaks a rule, or whose text
    numpy's parser could read differently from Python's (non-ASCII, or an
    ASCII separator it skips as a space) is parsed again line by line with
    Python's int and float under the same rules; the first bad line's
    InputError is raised once the rows before it have been yielded.
    """
    with csv_reader(source, header) as lines:
        while chunk := list(islice(lines, CSV_CHUNK_LINES)):
            line_nos, texts = zip(*chunk)
            records = _loadtxt(texts, dtype)
            if records is not None and all(check(records).all() for check, _ in rules):
                yield np.array(line_nos), records
                continue
            rows, error = [], None
            for line_no, text in chunk:
                try:
                    rows.append(_parse_line(line_no, text, dtype, rules))
                except InputError as exc:
                    error = exc
                    break
            yield np.array(line_nos[:len(rows)], dtype=np.int64), np.array(rows, dtype=dtype)
            if error is not None:
                raise error


def _loadtxt(texts, dtype):
    """The lines `texts` as `dtype` records, or None if numpy's parser could not
    read them as Python's int and float would."""
    joined = "".join(texts)
    if not joined.isascii() or any(sep in joined for sep in _NUMPY_ONLY_SPACES):
        return None
    try:
        return np.loadtxt(texts, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None


def _parse_line(line_no, text, dtype, rules):
    """One data line's values in `dtype`'s field order, each read with Python's
    int or float by its field's kind, or the InputError of the first rule it breaks."""
    fields = text.split(",")
    sizes = [math.prod(dtype[name].shape) for name in dtype.names]
    if len(fields) != sum(sizes):
        raise InputError(line_no, f"expected {sum(sizes)} fields, got {len(fields)}")
    row, at = {}, 0
    try:
        for name, size in zip(dtype.names, sizes):
            convert = float if dtype[name].base.kind == "f" else int
            values = [convert(field) for field in fields[at:at + size]]
            row[name] = values if dtype[name].shape else values[0]
            at += size
    except ValueError as exc:
        raise InputError(line_no, f"unparseable field ({exc})") from None
    bad = next((ch for ch in text if not ch.isascii() or ch == "_"), None)
    if bad is not None:
        raise InputError(line_no, f"unparseable field (numbers are ASCII without '_', got {bad!r})")
    for check, message in rules:
        if not check(row):
            raise InputError(line_no, message(row))
    return tuple(row.values())


@contextmanager
def csv_writer(dest, header, comments=None):
    """Open `dest` (a path or an open text file) for a CSV body.

    `comments` is an optional mapping echoed as leading `# key=value` lines;
    the header line follows.  Paths are written UTF-8 with LF line endings.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            with csv_writer(fh, header, comments) as out:
                yield out
        return
    for key, value in (comments or {}).items():
        dest.write(f"# {key}={value}\n")
    dest.write(header + "\n")
    yield dest


# ---------------------------------------------------------------------------
# Trace file: header `point_x,point_y,ap_id,trial,seq,rssi_dbm`.  Coordinates
# are finite signed feet, rssi_dbm an integer in [READING_RANGE[0], 0], trial
# and seq integers from 0 to INT64_MAX.

INT64_MAX = int(np.iinfo(np.int64).max)
_TRACE_DTYPE = np.dtype([(name, np.float64 if name.startswith("point") else np.int64)
                         for name in TRACE_HEADER.split(",")])


_TRACE_RULES = (
    (lambda r: np.isfinite(r["point_x"]) & np.isfinite(r["point_y"]),
     lambda r: f"non-finite coordinate ({r['point_x']}, {r['point_y']})"),
    (lambda r: r["point_x"] != 0, lambda r: "point_x = 0 lies on the partition wall"),
    (lambda r: np.isin(r["ap_id"], AP_IDS),
     lambda r: f"ap_id must be one of {AP_IDS}, got {r['ap_id']}"),
    (lambda r: r["trial"] >= 0, lambda r: f"trial must be >= 0, got {r['trial']}"),
    (lambda r: r["seq"] >= 0, lambda r: f"seq must be >= 0, got {r['seq']}"),
    (lambda r: r["rssi_dbm"] <= 0,
     lambda r: f"rssi is reported in negative dBm, got {r['rssi_dbm']}"),
    (lambda r: r["rssi_dbm"] >= READING_RANGE[0],
     lambda r: f"rssi must be >= {READING_RANGE[0]} dBm, got {r['rssi_dbm']}"),
    (lambda r: (r["trial"] <= INT64_MAX) & (r["seq"] <= INT64_MAX),
     lambda r: f"trial and seq must be <= {INT64_MAX}, got {r['trial']} and {r['seq']}"),
)


def _read_trace_rows(source):
    """The trace rows of `source` in file order with their line numbers, and the
    InputError of its first bad row (None: every row is good)."""
    chunks, error = [(np.empty(0, np.int64), np.empty(0, _TRACE_DTYPE))], None
    try:
        for chunk in read_csv_chunks(source, TRACE_HEADER, _TRACE_DTYPE, _TRACE_RULES):
            chunks.append(chunk)
    except InputError as exc:  # the rows before it are in `chunks`: an earlier repeat wins
        error = exc
    line_nos, rows = map(np.concatenate, zip(*chunks))
    return line_nos, rows, error


def ingest_traces(source) -> list[PointRecord]:
    """Parse a trace file into PointRecords, one per distinct device point.

    `source` may be a path, an open text file, or an iterable of lines.
    Readings are grouped into traces by (point, ap_id, trial) and ordered by
    seq; a point's traces are in (ap_id, trial) order, and its coordinates
    are those of its first row.  The room label comes from the sign of x.
    The first bad line raises InputError: a row that breaks a rule, or one
    that repeats an earlier row's (point, ap_id, trial, seq).
    """
    line_nos, rows, error = _read_trace_rows(source)
    # one stable sort by (point, ap_id, trial, seq): equal keys keep file order
    order = np.lexsort([rows[name] for name in reversed(TRACE_HEADER.split(",")[:5])])
    line_nos, rows = line_nos[order], rows[order]
    keys = [rows[name] for name in TRACE_HEADER.split(",")[:5]]
    changed = np.ones((len(keys), len(rows)), dtype=bool)  # does row k start a new key value
    for start, key in zip(changed, keys):
        np.not_equal(key[1:], key[:-1], out=start[1:])
    new_point = changed[0] | changed[1]
    new_trace = new_point | changed[2] | changed[3]
    repeats = np.flatnonzero(~(new_trace | changed[4]))
    if len(repeats):
        row = repeats[np.argmin(line_nos[repeats])]
        if error is None or error.line_no is not None and line_nos[row] < error.line_no:
            x, y, ap_id, trial, seq, _ = rows[row].item()
            key = ((x, y), ap_id, trial, seq)
            raise InputError(int(line_nos[row]), f"duplicate reading key {key}")
    if error is not None:
        raise error

    trace_starts, point_starts = np.flatnonzero(new_trace), np.flatnonzero(new_point)
    bounds = np.append(trace_starts, len(rows)).tolist()
    rssi = rows["rssi_dbm"].tolist()
    traces = [Trace(rssi[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    trace_keys = list(zip(keys[2][trace_starts].tolist(), keys[3][trace_starts].tolist()))
    # a point's first row in the file gives its coordinates: -0.0 == 0.0 in one point
    first_lines = np.minimum.reduceat(line_nos, point_starts) if len(rows) else line_nos
    sizes = np.diff(np.append(point_starts, len(rows)))
    first_rows = rows[line_nos == np.repeat(first_lines, sizes)]
    points = zip(first_rows["point_x"].tolist(), first_rows["point_y"].tolist())
    groups = np.append(np.searchsorted(trace_starts, point_starts), len(traces)).tolist()
    return [PointRecord(point, dict(zip(trace_keys[lo:hi], traces[lo:hi])))
            for point, lo, hi in zip(points, groups, groups[1:])]


def write_traces(points, dest, comments=None):
    """Write PointRecords in the trace-file format (deterministic row order).

    Only files that `ingest_traces` reads back are written: two records at one
    point, a record without traces, a key outside (ap_id in AP_IDS, trial from
    0 to INT64_MAX) or a reading above 0 dBm raises ValueError naming the point
    before `dest` is opened.
    """
    points = sorted(points, key=lambda p: p.point)
    for before, record in zip([None, *points], points):
        if not record.traces:
            raise ValueError(f"point {record.point}: a record without traces")
        if before is not None and before.point == record.point:
            raise ValueError(f"point {record.point}: two records at this point")
        for (ap_id, trial), trace in record.traces.items():
            where = f"point {record.point}, (ap_id, trial) {(ap_id, trial)}"
            if not (isinstance(ap_id, Integral) and ap_id in AP_IDS):
                raise ValueError(f"{where}: ap_id must be one of {AP_IDS}")
            if not (isinstance(trial, Integral) and 0 <= trial <= INT64_MAX):
                raise ValueError(f"{where}: trial must be an integer from 0 to {INT64_MAX}")
            if (high := max(trace.values)) > 0:
                raise ValueError(f"{where}: rssi is reported in negative dBm, got {high}")
    with csv_writer(dest, TRACE_HEADER, comments) as out:
        for record in points:
            x, y = record.point
            for (ap_id, trial), trace in sorted(record.traces.items()):
                prefix = f"{x!r},{y!r},{int(ap_id)},{int(trial)},"
                out.write("".join([f"{prefix}{seq},{rssi}\n"
                                   for seq, rssi in enumerate(trace.values)]))


# ---------------------------------------------------------------------------
# Pair dataset construction


@dataclass(frozen=True)
class PairingConfig:
    """How many samples of each class to draw and how trials are matched.

    trial_matching "equal" pairs both points at the same trial index, which
    mimics simultaneous measurement; "random" draws each point's trial
    independently.
    """

    n_positive: int = 100
    n_negative: int = 200
    trial_matching: str = "equal"

    def __post_init__(self):
        if self.n_positive < 0 or self.n_negative < 0:
            raise ValueError("sample counts must be >= 0")
        if self.n_positive == self.n_negative == 0:
            raise ValueError("n_positive, n_negative: both are 0, so there is nothing to fit")
        if self.trial_matching not in ("equal", "random"):
            raise ValueError(f"unknown trial_matching {self.trial_matching!r}")


def _pair_counts(points, trial_matching):
    """Every (i, j) pair of `points` in itertools.combinations order, as index arrays;
    whether each pair shares a room; how many (trial_a, trial_b) combinations it
    has; and the point x trial membership matrix with the trial id of each column.

    "equal" counts the trials both points cover, "random" the product of the
    two points' trial counts.  Points that cannot pair raise InputError:
    none, a room with fewer than two, or one without a trial every AP covers.
    """
    if not points:
        raise InputError(None, "no points to pair")
    trial_sets = [record.trial_ids() for record in points]
    for record, trials in zip(points, trial_sets):
        if not trials:
            raise InputError(None, f"point {record.point} lacks a trace for every access point")
    rooms = [record.room for record in points]
    for room, n in Counter(rooms).items():
        if n < 2:
            raise InputError(None, f"room {room!r} has {n} point(s); need >= 2")
    trial_ids = np.unique(np.concatenate(trial_sets))
    member = np.array([np.isin(trial_ids, trials) for trials in trial_sets], dtype=np.int64)
    i, j = np.triu_indices(len(points), k=1)
    left = np.array(rooms) == ROOM_LEFT
    if trial_matching == "equal":
        counts = (member @ member.T)[i, j]
    else:
        sizes = member.sum(axis=1)
        counts = sizes[i] * sizes[j]
    return i, j, left[i] == left[j], counts, member, trial_ids


def _nth_member(member_rows, n):
    """Column of each row's n-th (0-based) member."""
    return np.argmax(np.cumsum(member_rows, axis=1) > n[:, None], axis=1)


def build_pairs(points, config: PairingConfig, seed: int) -> Dataset:
    """Construct the labeled pair dataset from point records.

    A sample is a (point pair, trial assignment) combination; combinations are
    drawn without replacement by a seeded generator until the configured class
    counts are reached, so the same point pair can recur with different trial
    draws when the requested count exceeds the number of distinct pairs.
    Each class's combinations are numbered by pair in (i, j) order, then by
    trial assignment (common trials ascending for "equal", (trial_a, trial_b)
    in row-major order for "random"); a draw picks numbers and decodes them
    through the per-pair counts, so the combinations are never listed.
    Positive samples come first in the output, then negatives; within each
    class the order is the generator's draw order.  Points that cannot pair
    raise InputError, and a class count above its combinations
    ConfigError, both before any pair is featurized.
    """
    from .features import featurize_samples  # deferred: features needs this module's types

    points = tuple(sorted(points, key=lambda p: p.point))
    i, j, same, counts, member, trial_ids = _pair_counts(points, config.trial_matching)

    drawn = []
    for label, key, in_class in ((1, "n_positive", same), (0, "n_negative", ~same)):
        class_i, class_j, class_counts = i[in_class], j[in_class], counts[in_class]
        ends, total, count = np.cumsum(class_counts), int(class_counts.sum()), getattr(config, key)
        if count > total:
            raise ConfigError(f"{key}: {count} samples requested but only {total} "
                              "distinct (pair, trial) combinations exist")
        rng = generator(seed, "pairs", label)
        picks = rng.choice(total, size=count, replace=False)
        pair = np.searchsorted(ends, picks, side="right")
        offset = picks - (ends[pair] - class_counts[pair])
        a, b = member[class_i[pair]], member[class_j[pair]]
        if config.trial_matching == "equal":
            trial_a = trial_b = trial_ids[_nth_member(a * b, offset)]
        else:
            size_b = b.sum(axis=1)
            trial_a = trial_ids[_nth_member(a, offset // size_b)]
            trial_b = trial_ids[_nth_member(b, offset % size_b)]
        drawn.append(np.column_stack([class_i[pair], class_j[pair], trial_a, trial_b]))

    samples = np.concatenate(drawn)
    y = np.repeat(np.array([1, 0]), [config.n_positive, config.n_negative])
    return Dataset(points, samples, featurize_samples(points, samples), y)
