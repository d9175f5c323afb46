"""Align two RSSI sequences with dynamic time warping.

DTW finds the minimum-cost monotone alignment between two sequences of
possibly different lengths; one reading may map to several readings of the
other sequence.  Small distances mean the devices saw similar signal
profiles from that access point.
"""

from roomsense import SimConfig, dtw_path, generate

points = generate(SimConfig(seed=42))
left = [p for p in points if p.room == "left"]
right = [p for p in points if p.room == "right"]

# same-room pair vs cross-room pair, AP 3 (the access point inside the right room)
pairs = {
    "same room (left, left)": (left[0], left[1]),
    "cross room (left, right)": (left[0], right[0]),
}
for label, (a, b) in pairs.items():
    u = list(a.traces[(3, 0)].unique)
    v = list(b.traces[(3, 0)].unique)
    distance, path = dtw_path(u, v)
    print(label)
    print(f"  x = {u}")
    print(f"  y = {v}")
    print(f"  distance = {distance}")
    print(f"  path     = {path}")
    print()

# toy example with unequal lengths: the middle value of x stretches over
# the repeated 2s of y
distance, path = dtw_path([1, 2, 3], [2, 2, 2, 3, 4])
print(f"dtw([1,2,3], [2,2,2,3,4]) = {distance}, path {path}")
