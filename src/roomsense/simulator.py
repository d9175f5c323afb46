"""Synthetic RSSI trace generation for two adjacent rooms and three APs.

The signal model is log-distance path loss anchored at a reference received
power, plus a fixed per-wall attenuation and Gaussian shadowing noise.  All
access points belong to the right room (x >= 0), so a left-room device always
has one wall between itself and every AP.
"""

import math
from dataclasses import dataclass

from ._seeds import generator
from .dataset import PointRecord, Trace

FT_TO_M = 0.3048

RSSI_FLOOR = -100
RSSI_CEILING = 0


@dataclass(frozen=True)
class SimConfig:
    """Geometry, collection protocol, and signal-model parameters.

    Rooms are rectangles that share the x = 0 wall: the left room spans
    x in (-room_left[0], 0), the right room x in (0, room_right[0]), both
    with y in (0, depth).  Dimensions are in feet.  interval_s records the
    sampling cadence of the collection protocol; the generator itself is
    timestamp-free, ordering samples by seq.
    """

    ap_positions: tuple[tuple[float, float], ...] = ((0.0, 0.0), (0.0, 21.0), (32.0, 0.0))
    room_left: tuple[float, float] = (33.0, 25.0)
    room_right: tuple[float, float] = (35.0, 25.0)
    devices_per_room: int = 10
    trials: int = 10
    samples_per_trial: int = 8
    interval_s: float = 4.0
    gamma: float = 2.5
    pl0_dbm: float = -40.0
    d0_m: float = 1.0
    wall_loss_db: float = 5.0
    noise_sigma_db: float = 4.0
    seed: int = 0

    def __post_init__(self):
        finite = (self.pl0_dbm, self.wall_loss_db, self.gamma, self.d0_m, self.interval_s,
                  self.noise_sigma_db, *self.room_left, *self.room_right,
                  *(c for ap in self.ap_positions for c in ap))
        if not all(map(math.isfinite, finite)):
            raise ValueError("signal parameters, room sizes and AP coordinates must be finite")
        # `not x > 0` rather than `x <= 0`, so NaN fails each check
        for name in ("gamma", "d0_m", "interval_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.noise_sigma_db >= 0:
            raise ValueError(f"noise_sigma_db must be >= 0, got {self.noise_sigma_db}")
        for name in ("room_left", "room_right"):
            width, depth = getattr(self, name)
            if not (width > 0 and depth > 0):
                raise ValueError(f"{name} dimensions must be positive, got {width}x{depth}")
        if len(self.ap_positions) != 3:
            raise ValueError("expected exactly three access points")
        if self.devices_per_room < 2:
            raise ValueError(f"devices_per_room: {self.devices_per_room} device(s) per room "
                             "leave no pair within a room; need >= 2")
        if self.trials < 1 or self.samples_per_trial < 1:
            raise ValueError("trials and samples_per_trial must be >= 1")


def path_loss_db(d_m: float, gamma: float, d0_m: float) -> float:
    """Distance-dependent loss beyond the reference power: 10 * gamma * log10(d/d0).

    Distances at or below d0 lose nothing, so the loss never goes negative
    (and a gamma whose 10x overflows gives 0 there, not inf * 0 = NaN).
    """
    if d0_m <= 0:
        raise ValueError(f"d0_m must be > 0, got {d0_m}")
    if d_m <= d0_m:
        return 0.0
    return 10.0 * gamma * math.log10(d_m / d0_m)


def _side(x) -> str:
    # The APs sit in (or on the wall of) the right room, so x = 0 counts as right.
    return "left" if x < 0 else "right"


def _mean_level_dbm(device_point_ft, ap_ft, cfg: SimConfig) -> float:
    """Noise-free received level for a device/AP geometry, before clamping.

    Coordinates are feet; the model works in meters.  One wall attenuation is
    charged when device and AP are on opposite sides of the x = 0 partition.
    """
    dx = (device_point_ft[0] - ap_ft[0]) * FT_TO_M
    dy = (device_point_ft[1] - ap_ft[1]) * FT_TO_M
    d_m = math.hypot(dx, dy)
    walls = 0 if _side(device_point_ft[0]) == _side(ap_ft[0]) else 1
    return (
        cfg.pl0_dbm
        - path_loss_db(d_m, cfg.gamma, cfg.d0_m)
        - walls * cfg.wall_loss_db
    )


def _reading(level) -> int:
    """A level clamped to [-100, 0] dBm and then rounded to the nearest dBm, so
    a loss past the floor reads -100 even when it overflows to -inf."""
    return round(min(RSSI_CEILING, max(RSSI_FLOOR, level)))


def sample_rssi(device_point_ft, ap_ft, cfg: SimConfig, rng) -> int:
    """Draw one integer RSSI reading for a device/AP geometry.

    The noise-free level gets one Gaussian shadowing draw from `rng` (none
    when noise_sigma_db is 0) before it is clamped and rounded.
    """
    level = _mean_level_dbm(device_point_ft, ap_ft, cfg)
    if cfg.noise_sigma_db > 0:
        level += rng.normal(0.0, cfg.noise_sigma_db)
    return _reading(level)


def _room_points(n, x_lo, x_hi, depth, rng):
    """n jittered grid points strictly inside the rectangle (x_lo, x_hi) x (0, depth)."""
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    cell_w = (x_hi - x_lo) / cols
    cell_h = depth / rows
    points = []
    for idx in range(n):
        r, c = divmod(idx, cols)
        cx = x_lo + (c + 0.5) * cell_w
        cy = (r + 0.5) * cell_h
        # Jitter stays under half a cell, so points remain interior and distinct.
        x = cx + rng.uniform(-0.4, 0.4) * cell_w
        y = cy + rng.uniform(-0.4, 0.4) * cell_h
        points.append((x, y))
    return points


def generate(cfg: SimConfig) -> list[PointRecord]:
    """Generate point records for the configured geometry and protocol.

    Device placement and every (point, AP, trial) reading stream get their own
    deterministic RNG substream, so regeneration with the same config is exact
    and per-trace generation is order independent.  The noise-free level is
    computed once per (point, AP), and a trace's shadowing noise is one draw
    of samples_per_trial values, the same values `sample_rssi` would draw one
    at a time from that stream (with noise_sigma_db 0 every draw is 0.0,
    which leaves the level as it is).
    """
    left_w, left_d = cfg.room_left
    right_w, right_d = cfg.room_right
    placements = _room_points(
        cfg.devices_per_room, -left_w, 0.0, left_d, generator(cfg.seed, "sim-place", "left")
    ) + _room_points(
        cfg.devices_per_room, 0.0, right_w, right_d, generator(cfg.seed, "sim-place", "right")
    )

    records = []
    for point_idx, point in enumerate(placements):
        traces = {}
        for ap_idx, ap in enumerate(cfg.ap_positions):
            ap_id = ap_idx + 1
            level = _mean_level_dbm(point, ap, cfg)
            for trial in range(cfg.trials):
                rng = generator(cfg.seed, "sim-read", point_idx, ap_id, trial)
                noise = rng.normal(0.0, cfg.noise_sigma_db, cfg.samples_per_trial)
                traces[(ap_id, trial)] = Trace([_reading(level + e) for e in noise.tolist()])
        records.append(PointRecord(point, traces))
    return records
