"""RSSI trace records, trace-file I/O, and labeled pair-dataset construction.

Two devices form a positive ("adjacent") sample when they sit in the same
room, a negative ("distant") one otherwise; x < 0 is the left room, x > 0 the
right one.  A pair dataset is arrays: (i, j, trial_a, trial_b) index rows
into the sorted point records, the n x 18 feature matrix, and the labels.
"""

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._seeds import generator

ROOM_LEFT = "left"
ROOM_RIGHT = "right"
AP_IDS = (1, 2, 3)

TRACE_HEADER = "point_x,point_y,ap_id,trial,seq,rssi_dbm"


class TraceFormatError(ValueError):
    """Malformed trace file; carries the 1-based offending line number (None: the whole file)."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


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
    keep a building's thousands of traces from each carrying a dict.
    """

    values: tuple[int, ...]
    unique: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if len(self.values) == 0:
            raise ValueError("a trace must hold at least one reading")
        object.__setattr__(self, "unique", tuple(dict.fromkeys(self.values)))


@dataclass(frozen=True)
class PointRecord:
    """A device location with its traces, keyed by (ap_id, trial)."""

    point: tuple[float, float]
    traces: dict[tuple[int, int], Trace]

    def __post_init__(self):
        object.__setattr__(self, "point", (float(self.point[0]), float(self.point[1])))
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
def csv_reader(source, header, error):
    """The data rows of `source` as (line number, fields), after its header.

    `source` may be a path, an open text file, or an iterable of lines.
    Blank and '#' comment lines are skipped; a missing or different header
    raises `error(line_no, message)`.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", newline="") as fh:
            with csv_reader(fh, header, error) as rows:
                yield rows
        return
    lines = ((n, raw.strip()) for n, raw in enumerate(source, start=1))
    lines = ((n, line) for n, line in lines if line and not line.startswith("#"))
    line_no, first = next(lines, (1, None))
    if first != header:
        raise error(line_no, f"expected header {header!r}")
    yield ((n, line.split(",")) for n, line in lines)


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
# are finite signed feet, rssi_dbm an integer <= 0.


def _parse_row(line_no, fields):
    if len(fields) != 6:
        raise TraceFormatError(line_no, f"expected 6 fields, got {len(fields)}")
    try:
        x, y = float(fields[0]), float(fields[1])
        ap_id, trial, seq, rssi = (int(f) for f in fields[2:])
    except ValueError as exc:
        raise TraceFormatError(line_no, f"unparseable field ({exc})") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise TraceFormatError(line_no, f"non-finite coordinate ({x}, {y})")
    if x == 0:
        raise TraceFormatError(line_no, "point_x = 0 lies on the partition wall")
    if ap_id not in AP_IDS:
        raise TraceFormatError(line_no, f"ap_id must be one of {AP_IDS}, got {ap_id}")
    if trial < 0:
        raise TraceFormatError(line_no, f"trial must be >= 0, got {trial}")
    if seq < 0:
        raise TraceFormatError(line_no, f"seq must be >= 0, got {seq}")
    if rssi > 0:
        raise TraceFormatError(line_no, f"rssi is reported in negative dBm, got {rssi}")
    return (x, y), ap_id, trial, seq, rssi


def ingest_traces(source) -> list[PointRecord]:
    """Parse a trace file into PointRecords, one per distinct device point.

    `source` may be a path, an open text file, or an iterable of lines.
    Readings are grouped into traces by (point, ap_id, trial) and ordered by
    seq; the room label comes from the sign of x.
    """
    grouped = {}  # point -> (ap_id, trial) -> seq -> rssi
    with csv_reader(source, TRACE_HEADER, TraceFormatError) as rows:
        for line_no, fields in rows:
            point, ap_id, trial, seq, rssi = _parse_row(line_no, fields)
            readings = grouped.setdefault(point, {}).setdefault((ap_id, trial), {})
            if seq in readings:
                key = (point, ap_id, trial, seq)
                raise TraceFormatError(line_no, f"duplicate reading key {key}")
            readings[seq] = rssi
    return [
        PointRecord(point, {key: Trace([by_seq[s] for s in sorted(by_seq)])
                            for key, by_seq in traces.items()})
        for point, traces in sorted(grouped.items())
    ]


def write_traces(points, dest, comments=None):
    """Write PointRecords in the trace-file format (deterministic row order)."""
    with csv_writer(dest, TRACE_HEADER, comments) as out:
        for record in sorted(points, key=lambda p: p.point):
            x, y = record.point
            for (ap_id, trial) in sorted(record.traces):
                for seq, rssi in enumerate(record.traces[(ap_id, trial)].values):
                    out.write(f"{x!r},{y!r},{ap_id},{trial},{seq},{rssi}\n")


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
        if self.trial_matching not in ("equal", "random"):
            raise ValueError(f"unknown trial_matching {self.trial_matching!r}")


def check_pairable(points):
    """Raise ValueError unless there are points, two per room, each with a trial all APs cover."""
    if not points:
        raise ValueError("no points to pair")
    for record in points:
        if not record.trial_ids():
            raise ValueError(f"point {record.point} lacks a trace for every access point")
    rooms = [record.room for record in points]
    for room in dict.fromkeys(rooms):
        if rooms.count(room) < 2:
            raise ValueError(f"room {room!r} has {rooms.count(room)} point(s); need >= 2")


def build_pairs(points, config: PairingConfig | None = None, seed: int = 0) -> Dataset:
    """Construct the labeled pair dataset from point records.

    A sample is a (point pair, trial assignment) combination; combinations are
    drawn without replacement by a seeded generator until the configured class
    counts are reached, so the same point pair can recur with different trial
    draws when the requested count exceeds the number of distinct pairs.
    Positive samples come first in the output, then negatives; within each
    class the order is the generator's draw order.
    """
    from .features import featurize_pair  # deferred: features needs this module's types

    config = config or PairingConfig()
    points = tuple(sorted(points, key=lambda p: p.point))
    check_pairable(points)
    trials = [record.trial_ids() for record in points]
    rooms = [record.room for record in points]

    # (i, j, trial_a, trial_b) per label, pairs in (i, j) order, then trials
    combos = {1: [], 0: []}
    for i, j in itertools.combinations(range(len(points)), 2):
        if config.trial_matching == "equal":
            assignments = [(t, t) for t in trials[i] if t in trials[j]]
        else:
            assignments = itertools.product(trials[i], trials[j])
        combos[int(rooms[i] == rooms[j])] += [(i, j, ta, tb) for ta, tb in assignments]

    drawn = []
    for label, count in ((1, config.n_positive), (0, config.n_negative)):
        rows = np.array(combos[label], dtype=np.int64).reshape(-1, 4)
        if count > len(rows):
            kind = ("negative", "positive")[label]
            raise ValueError(f"{count} {kind} samples requested but only {len(rows)} "
                             "distinct (pair, trial) combinations exist")
        rng = generator(seed, "pairs", label)
        drawn.append(rows[rng.choice(len(rows), size=count, replace=False)])

    samples = np.concatenate(drawn)
    X = np.empty((len(samples), 18))
    for k, (i, j, ta, tb) in enumerate(samples.tolist()):
        X[k] = featurize_pair(points[i], points[j], trial_a=ta, trial_b=tb)
    y = np.repeat(np.array([1, 0]), [config.n_positive, config.n_negative])
    return Dataset(points, samples, X, y)
