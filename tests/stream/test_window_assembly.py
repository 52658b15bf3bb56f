"""One-pass window assembly (:meth:`ClosedWindow.fingerprints`).

The window's fingerprints are built from one stacked, validated and
lexsorted block of all its rows.  The per-user reference kept here is
what the assembly replaced — ``Fingerprint(uid, np.vstack(rows))`` per
user, in the same canonical order — and every fingerprint must match
it bit for bit, including which of two equal start times comes first.
"""

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.stream.feed import StreamEvent
from repro.stream.windows import ClosedWindow, StreamConfig, WindowManager


def reference(window, uid_order=None):
    if uid_order is None:
        uids = sorted(window.rows_by_uid)
    else:
        n = len(uid_order)
        uids = sorted(window.rows_by_uid, key=lambda u: (uid_order.get(u, n), u))
    return [Fingerprint(uid, np.vstack(window.rows_by_uid[uid])) for uid in uids]


def assert_same_fingerprints(got, want):
    assert [fp.uid for fp in got] == [fp.uid for fp in want]
    for g, w in zip(got, want):
        assert g.data.dtype == w.data.dtype == np.float64
        assert g.data.shape == w.data.shape
        assert g.data.flags.c_contiguous
        assert g.data.tobytes() == w.data.tobytes()
        assert (g.count, g.members) == (w.count, w.members)


def event(uid, t, x=0.0, dt=1.0):
    row = np.array([x, 100.0, 0.0, 100.0, float(t), dt])
    return StreamEvent(uid=uid, t=float(t), row=row)


def test_equal_start_times_keep_arrival_order():
    window = ClosedWindow(index=0, start=0.0, end=100.0)
    # User "a" has three rows at t=5 (told apart by x) arriving out of
    # order with a t=1 row between them; "b" arrives interleaved.
    for ev in (
        event("a", 5, x=3.0), event("b", 7), event("a", 1), event("a", 5, x=1.0),
        event("b", 7, x=9.0), event("a", 5, x=2.0), event("b", 2),
    ):
        window.add(ev)
    got = window.fingerprints()
    assert_same_fingerprints(got, reference(window))
    assert got[0].data[1:, 0].tolist() == [3.0, 1.0, 2.0]


def test_late_redirected_rows():
    manager = WindowManager(StreamConfig(window_min=10.0, max_lag_min=0.0))
    closed = []
    for ev in (event("a", 0), event("b", 3), event("a", 25), event("b", 9),
               event("c", 4), event("c", 26), event("b", 27), event("a", 8)):
        closed.extend(manager.push(ev))
    closed.extend(manager.flush())
    assert manager.n_redirected == 3
    late = [w for w in closed if w.n_late_events]
    assert late
    for window in closed:
        assert_same_fingerprints(window.fingerprints(), reference(window))


@pytest.mark.parametrize(
    "uid_order",
    [None, {"c": 0, "a": 1, "b": 2, "d": 3}, {"b": 0, "zz": 1}, {}],
    ids=["lexicographic", "given", "unknown-uids", "empty"],
)
def test_uid_orders(uid_order):
    rng = np.random.default_rng(11)
    window = ClosedWindow(index=0, start=0.0, end=60.0)
    for _ in range(40):
        uid = str(rng.choice(["a", "b", "c", "d", "e"]))
        window.add(event(uid, int(rng.integers(0, 6)), x=float(rng.integers(0, 50))))
    assert_same_fingerprints(window.fingerprints(uid_order), reference(window, uid_order))


def test_random_jittered_sliding_stream():
    rng = np.random.default_rng(5)
    events = []
    for u in range(12):
        for t in rng.integers(0, 240, size=int(rng.integers(1, 15))):
            events.append(event(f"u{u}", int(t), x=float(rng.integers(0, 9)),
                                dt=float(rng.choice([0.0, 1.0, 30.0]))))
    arrival = np.array([ev.t for ev in events]) + rng.uniform(0, 60, len(events))
    manager = WindowManager(StreamConfig(window_min=40.0, slide_min=20.0, max_lag_min=2.0))
    closed = []
    for i in np.argsort(arrival, kind="stable"):
        closed.extend(manager.push(events[int(i)]))
    closed.extend(manager.flush())
    assert manager.n_redirected > 0
    order = {f"u{u}": 11 - u for u in range(12)}
    for window in closed:
        for uid_order in (None, order):
            assert_same_fingerprints(
                window.fingerprints(uid_order), reference(window, uid_order)
            )


def test_empty_window_has_no_fingerprints():
    assert ClosedWindow(index=0, start=0.0, end=1.0).fingerprints() == []


@pytest.mark.parametrize(
    "bad,match",
    [
        ([0.0, 100.0, np.nan, 100.0, 3.0, 1.0], "non-finite"),
        ([0.0, 100.0, 0.0, -1.0, 3.0, 1.0], "non-negative"),
        ([0.0, 100.0, 0.0, 100.0, 3.0, -5.0], "non-negative"),
    ],
)
def test_bad_row_still_raises(bad, match):
    window = ClosedWindow(index=0, start=0.0, end=100.0)
    window.add(event("a", 1))
    window.add(StreamEvent(uid="b", t=3.0, row=np.array(bad)))
    window.add(event("c", 2))
    with pytest.raises(ValueError, match=match):
        reference(window)
    with pytest.raises(ValueError, match=match):
        window.fingerprints()
