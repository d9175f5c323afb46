"""Generate synthetic RSSI traces for two rooms and look at the raw data.

Two adjacent rooms share the wall at x = 0.  Three access points sit in the
right room (two on the shared wall, one deep inside), ten devices per room
record the broadcast signal strength of each AP over ten trials.
"""

from roomsense import SimConfig, generate, write_traces

cfg = SimConfig(seed=42)
points = generate(cfg)

print(f"devices: {len(points)}  (10 per room)")
print(f"traces per device: {len(points[0].traces)}  (3 APs x 10 trials)")
print()

# A left-room device is one wall away from every AP, so its readings sit
# noticeably below a mirror-image right-room device's.
left = next(p for p in points if p.room == "left")
right = next(p for p in points if p.room == "right")
for record in (left, right):
    x, y = record.point
    print(f"device at ({x:6.1f}, {y:4.1f})  room={record.room}")
    for ap_id in (1, 2, 3):
        trace = record.traces[(ap_id, 0)]
        print(f"  AP{ap_id} trial 0: {list(trace.values)}")
        print(f"        unique:   {list(trace.unique)}")
    print()

write_traces(points, "traces.csv", comments={"seed": cfg.seed})
print("wrote traces.csv (CSV: point_x,point_y,ap_id,trial,seq,rssi_dbm)")
