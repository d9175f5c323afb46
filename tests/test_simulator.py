"""Signal model, geometry, and trace generation."""

import math
import re

import numpy as np
import pytest

from oracles import generate_oracle
from roomsense.dataset import ingest_traces, write_traces
from roomsense.dtw import dtw_distance
from roomsense.simulator import SimConfig, generate, path_loss_db, sample_rssi
from roomsense._seeds import generator


def test_path_loss_reference_distance_is_zero():
    assert path_loss_db(1.0, gamma=2.5, d0_m=1.0) == 0.0


def test_path_loss_decade():
    assert path_loss_db(10.0, gamma=2.0, d0_m=1.0) == pytest.approx(20.0, abs=1e-12)


def test_path_loss_worked_example():
    # 25 * log10(5), independently computed
    assert path_loss_db(5.0, gamma=2.5, d0_m=1.0) == pytest.approx(
        17.474250108400472, abs=1e-9
    )


def test_path_loss_clamps_below_reference():
    assert path_loss_db(0.1, gamma=2.5, d0_m=1.0) == 0.0


def test_path_loss_rejects_bad_reference():
    with pytest.raises(ValueError):
        path_loss_db(1.0, gamma=2.5, d0_m=0.0)
    with pytest.raises(ValueError):
        path_loss_db(1.0, gamma=2.5, d0_m=-1.0)


def test_sample_rssi_at_ap_position():
    cfg = SimConfig(noise_sigma_db=0.0)
    assert sample_rssi((0.001, 0.0), (0.0, 0.0), cfg, None) == -40


def test_sample_rssi_worked_example_with_wall():
    # 10 ft = 3.048 m; -40 - 25*log10(3.048) - 5 = -57.1 -> -57
    cfg = SimConfig(noise_sigma_db=0.0)
    assert sample_rssi((-10.0, 0.0), (0.0, 0.0), cfg, None) == -57


def test_sample_rssi_wall_rule_treats_x0_as_ap_side():
    cfg = SimConfig(noise_sigma_db=0.0)
    left = sample_rssi((-10.0, 0.0), (0.0, 0.0), cfg, None)
    right = sample_rssi((10.0, 0.0), (0.0, 0.0), cfg, None)
    assert left == right - round(cfg.wall_loss_db)


def test_sample_rssi_deterministic_with_seeded_rng():
    cfg = SimConfig()
    a = sample_rssi((-10.0, 5.0), (0.0, 0.0), cfg, generator(42, "x"))
    b = sample_rssi((-10.0, 5.0), (0.0, 0.0), cfg, generator(42, "x"))
    assert a == b


def test_sample_rssi_clamped_to_range():
    cfg = SimConfig(noise_sigma_db=0.0, gamma=6.0)
    assert sample_rssi((-2000.0, 0.0), (0.0, 0.0), cfg, None) == -100
    cfg = SimConfig(noise_sigma_db=0.0, pl0_dbm=10.0)
    assert sample_rssi((0.5, 0.0), (0.0, 0.0), cfg, None) == 0
    # 10 * gamma overflows: the level is -inf past d0, and within d0 the loss stays 0
    cfg = SimConfig(noise_sigma_db=0.0, gamma=1e308)
    assert sample_rssi((-10.0, 0.0), (0.0, 0.0), cfg, None) == -100
    assert sample_rssi((0.001, 0.0), (0.0, 0.0), cfg, None) == -40


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(gamma=0.0)
    with pytest.raises(ValueError):
        SimConfig(d0_m=0.0)
    with pytest.raises(ValueError):
        SimConfig(noise_sigma_db=-1.0)
    with pytest.raises(ValueError):
        SimConfig(room_left=(0.0, 25.0))
    with pytest.raises(ValueError):
        SimConfig(ap_positions=((0.0, 0.0),))
    # non-finite values fail here, not deep inside generate()
    for bad in (
        dict(pl0_dbm=math.inf),
        dict(pl0_dbm=math.nan),
        dict(wall_loss_db=math.nan),
        dict(wall_loss_db=-math.inf),
        dict(ap_positions=((0.0, 0.0), (0.0, math.nan), (32.0, 0.0))),
        dict(ap_positions=((math.inf, 0.0), (0.0, 21.0), (32.0, 0.0))),
        dict(room_left=(math.inf, 25.0)),
        dict(room_right=(35.0, math.nan)),
        dict(gamma=math.inf),
        dict(noise_sigma_db=math.inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(**bad)


def test_generate_counts_small():
    cfg = SimConfig(devices_per_room=2, trials=1, samples_per_trial=1, seed=1)
    records = generate(cfg)
    assert len(records) == 4
    readings = sum(len(t.values) for r in records for t in r.traces.values())
    assert readings == 4 * 3 * 1


def test_generate_counts_default():
    cfg = SimConfig(seed=1)
    records = generate(cfg)
    assert len(records) == 20
    traces = [t for r in records for t in r.traces.values()]
    assert len(traces) == 20 * 3 * 10
    readings = [v for t in traces for v in t.values]
    assert len(readings) == 4800
    assert all(-100 <= v <= 0 for v in readings)
    assert sum(1 for r in records if r.room == "left") == 10


def test_generate_points_inside_rooms():
    cfg = SimConfig(seed=2)
    for record in generate(cfg):
        x, y = record.point
        assert 0.0 < y < 25.0
        if record.room == "left":
            assert -33.0 < x < 0.0
        else:
            assert 0.0 < x < 35.0


def test_generate_deterministic_and_seed_sensitive():
    cfg = SimConfig(devices_per_room=3, trials=2, samples_per_trial=4, seed=5)
    assert generate(cfg) == generate(cfg)
    other = SimConfig(devices_per_room=3, trials=2, samples_per_trial=4, seed=6)
    assert generate(cfg) != generate(other)


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("noise_sigma_db", [0.0, 4.0])
@pytest.mark.parametrize("samples_per_trial", [1, 8])
def test_generate_matches_per_reading_oracle(seed, noise_sigma_db, samples_per_trial):
    cfg = SimConfig(devices_per_room=3, trials=3, samples_per_trial=samples_per_trial,
                    noise_sigma_db=noise_sigma_db, seed=seed)
    assert generate(cfg) == generate_oracle(cfg)


def test_generate_matches_per_reading_oracle_when_path_loss_overflows():
    # 10 * gamma overflows: a reading beyond d0 of its AP sits at the floor
    cfg = SimConfig(devices_per_room=3, trials=2, gamma=1e308, seed=3)
    records = generate(cfg)
    assert records == generate_oracle(cfg)
    assert -100 in {v for r in records for t in r.traces.values() for v in t.values}


def test_generate_round_trips_through_trace_file(tmp_path):
    cfg = SimConfig(devices_per_room=3, trials=2, samples_per_trial=4, seed=8)
    records = generate(cfg)
    path = tmp_path / "traces.csv"
    write_traces(records, path)
    assert ingest_traces(path) == sorted(records, key=lambda r: r.point)


def test_config_refuses_fewer_than_two_devices_per_room():
    # a pair is two devices in one room, so one device per room can never yield one
    for n in (1, 0):
        message = f"devices_per_room: {n} device(s) per room leave no pair within a room"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}; need >= 2$"):
            SimConfig(devices_per_room=n)
    assert len(generate(SimConfig(devices_per_room=2, trials=1, samples_per_trial=1))) == 4


def test_noiseless_rssi_monotone_in_distance():
    cfg = SimConfig(noise_sigma_db=0.0, wall_loss_db=0.0)
    ap = (0.0, 0.0)
    distances = np.linspace(0.5, 120.0, 200)
    values = [sample_rssi((d, 0.0), ap, cfg, None) for d in distances]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_noisy_mean_converges_to_noiseless_value():
    noisy_cfg = SimConfig(noise_sigma_db=4.0)
    point, ap = (12.0, 7.0), (0.0, 0.0)
    # continuous noiseless level; integer rounding is unbiased at this sigma
    distance_m = math.hypot(12.0, 7.0) * 0.3048
    level = noisy_cfg.pl0_dbm - path_loss_db(distance_m, noisy_cfg.gamma, noisy_cfg.d0_m)
    rng = generator(99, "convergence")
    n = 10000
    draws = [sample_rssi(point, ap, noisy_cfg, rng) for _ in range(n)]
    assert abs(np.mean(draws) - level) <= 3 * 4.0 / math.sqrt(n)
    noiseless = sample_rssi(point, ap, SimConfig(noise_sigma_db=0.0), None)
    assert abs(np.mean(draws) - noiseless) <= 3 * 4.0 / math.sqrt(n) + 0.5  # quantization


def test_same_room_pairs_have_smaller_dtw_on_average():
    # statistical separation check over 30 seeded runs of the default geometry
    gaps = []
    for seed in range(30):
        records = generate(SimConfig(seed=seed))
        rooms = {}
        for r in records:
            rooms.setdefault(r.room, []).append(r)

        def mean_dtw(pairs):
            total, count = 0.0, 0
            for a, b in pairs:
                for ap_id in (1, 2, 3):
                    u = a.traces[(ap_id, 0)].unique
                    v = b.traces[(ap_id, 0)].unique
                    total += dtw_distance(u, v)
                    count += 1
            return total / count

        same = [
            (room[i], room[j])
            for room in rooms.values()
            for i in range(len(room))
            for j in range(i + 1, len(room))
        ]
        cross = [(a, b) for a in rooms["left"] for b in rooms["right"]]
        gaps.append(mean_dtw(cross) - mean_dtw(same))
    assert np.mean(gaps) > 0
    assert np.mean([g > 0 for g in gaps]) >= 0.8
