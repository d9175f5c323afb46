"""Shared builders for trace and point-record fixtures."""

from roomsense.dataset import PointRecord, Trace


def make_point(x, y, per_ap_trial):
    """PointRecord from a {(ap_id, trial): [rssi, ...]} mapping."""
    return PointRecord((x, y), {key: Trace(values) for key, values in per_ap_trial.items()})


def make_point_same_traces(x, y, values, trials=(0,)):
    """PointRecord with identical values for every AP and trial."""
    return make_point(
        x, y, {(ap, t): list(values) for ap in (1, 2, 3) for t in trials}
    )
