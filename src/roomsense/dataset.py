"""RSSI trace records, trace-file I/O, and labeled pair-dataset construction.

Two devices form a positive ("adjacent") sample when they sit in the same
room and a negative ("distant") sample otherwise.  Room membership is encoded
in the sign of the x coordinate: x < 0 is the left room, x > 0 the right one.
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
    """Malformed trace file; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
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


@dataclass(frozen=True)
class PairSample:
    """One classification sample: 18 features and the adjacency label."""

    point_a: tuple[float, float]
    point_b: tuple[float, float]
    features: tuple[float, ...]
    label: int

    def __post_init__(self):
        if len(self.features) != 18:
            raise ValueError(f"expected 18 features, got {len(self.features)}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class Dataset:
    """Ordered pair samples."""

    samples: tuple[PairSample, ...]

    @property
    def counts(self) -> tuple[int, int]:
        """(positive, negative) class counts."""
        n_pos = sum(s.label for s in self.samples)
        return n_pos, len(self.samples) - n_pos

    def feature_matrix(self) -> np.ndarray:
        return np.array([s.features for s in self.samples], dtype=float)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=int)


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
    points = sorted(points, key=lambda p: p.point)
    trials = [record.trial_ids() for record in points]
    for record, ids in zip(points, trials):
        if not ids:
            raise ValueError(f"point {record.point} lacks a trace for every access point")

    rooms = [record.room for record in points]
    for room in dict.fromkeys(rooms):
        if rooms.count(room) < 2:
            raise ValueError(f"room {room!r} has {rooms.count(room)} point(s); need >= 2")

    # (i, j, trial_a, trial_b) per label, pairs in (i, j) order, then trials
    combos = {1: [], 0: []}
    for i, j in itertools.combinations(range(len(points)), 2):
        if config.trial_matching == "equal":
            assignments = [(t, t) for t in trials[i] if t in trials[j]]
        else:
            assignments = itertools.product(trials[i], trials[j])
        combos[int(rooms[i] == rooms[j])] += [(i, j, ta, tb) for ta, tb in assignments]

    def draw(count, label):
        if count > len(combos[label]):
            kind = "positive" if label == 1 else "negative"
            raise ValueError(
                f"{count} {kind} samples requested but only {len(combos[label])} distinct "
                "(pair, trial) combinations exist"
            )
        rng = generator(seed, "pairs", label)
        samples = []
        for idx in rng.choice(len(combos[label]), size=count, replace=False):
            i, j, ta, tb = combos[label][idx]
            features = featurize_pair(points[i], points[j], trial_a=ta, trial_b=tb)
            samples.append(PairSample(
                points[i].point, points[j].point, tuple(features.tolist()), label
            ))
        return samples

    return Dataset(tuple(draw(config.n_positive, 1) + draw(config.n_negative, 0)))
