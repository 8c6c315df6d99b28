"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way and kept
free of imports from the package under test (aside from constants, and
the helpers ``synth_reference`` shares with ``synth_session``), so a test
comparing against these is a genuine second route.
"""

from __future__ import annotations

import csv
import math
from decimal import Decimal

import numpy as np
import scipy.linalg

from bomi.dataset_io import (
    CSV_HEADER,
    _rotation_about_random_axis,
    _spasm_profile,
    angles_to_raw,
    label_runs,
)
from bomi.fusion import FLAG_ACCEL_FALLBACK, FLAG_GIMBAL_GUARD, FLAG_MAG_FALLBACK


def rot_x(deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def rot_y(deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def rot_z(deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def body_to_world(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Intrinsic z-y-x attitude matrix; columns are body axes in world."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def world_to_body(vec, yaw: float, pitch: float, roll: float) -> np.ndarray:
    """A world-frame vector as seen by a sensor at the given attitude."""
    return body_to_world(yaw, pitch, roll).T @ np.asarray(vec, dtype=float)


def heading_from_mag(mag_body, pitch: float, roll: float) -> float:
    """Reference tilt-compensated heading: explicitly de-rotate with
    matrices, then take the horizontal-plane angle."""
    level = rot_y(pitch) @ rot_x(roll) @ np.asarray(mag_body, dtype=float)
    return math.degrees(math.atan2(-level[1], level[0]))


def circular_mean(angles_deg) -> float:
    """Mean direction of unit vectors at the given angles."""
    v = np.array(
        [
            [math.cos(math.radians(a)) for a in angles_deg],
            [math.sin(math.radians(a)) for a in angles_deg],
        ]
    ).mean(axis=1)
    return math.degrees(math.atan2(v[1], v[0]))


# Wrap sites of the complementary filter update, in evaluation order.
WRAP_SITES = (
    "roll_pred", "yaw_pred", "pitch_innovation", "roll_innovation", "roll_new",
    "yaw_innovation", "yaw_new",
)


def _wrap(angle: float, site: str, hits) -> float:
    a = (angle + 180.0) % 360.0 - 180.0
    if hits is not None and a == -180.0:
        hits[site] = hits.get(site, 0) + 1
    return a + 360.0 * (a == -180.0)


def _accel_measurement(ax, ay, az):
    if ax * ax + ay * ay + az * az < 1e-24:
        return None
    return (math.degrees(math.atan2(-ax, math.hypot(ay, az))),
            math.degrees(math.atan2(ay, az)))


def _mag_unit(mx, my, mz):
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    if norm < 1e-12:
        return None
    return mx / norm, my / norm, mz / norm


def level_heading(unit, pitch: float, roll: float) -> float:
    """Heading of a unit field vector de-rotated by pitch and roll, term by
    term as the filter forms it."""
    mx, my, mz = unit
    p = math.radians(pitch)
    r = math.radians(roll)
    cp, sp = math.cos(p), math.sin(p)
    cr, sr = math.cos(r), math.sin(r)
    x_level = mx * cp + my * sr * sp + mz * cr * sp
    y_level = my * cr - mz * sr
    return math.degrees(math.atan2(-y_level, x_level))


def accel_measurement(acc):
    """(pitch, roll) of an accelerometer vector, or None when it is zero."""
    return _accel_measurement(*map(float, acc))


def mag_heading(mag, pitch: float, roll: float):
    """Tilt-compensated heading of a magnetometer vector, or None when it is zero."""
    unit = _mag_unit(*map(float, mag))
    return None if unit is None else level_heading(unit, pitch, roll)


def complementary_filter_reference(rows, alpha, dt, gimbal_guard_deg, hits=None):
    """Raw (pitch, roll, yaw, flags) per tick of (T, 9) rows, one tick at a time.

    The recursion spelled out with helper calls: bootstrap from the first
    tick's measurement, then per tick predict from the gyro, blend toward
    the accelerometer and magnetometer angles along the shortest path,
    clamp pitch, and hold yaw on the gyro past the gimbal guard or on a
    zero magnetometer. ``hits``, a dict, counts per ``WRAP_SITES`` name the
    wraps whose raw result was exactly -180.
    """
    out = []
    state = None
    for row in rows:
        ax, ay, az, gx, gy, gz, mx, my, mz = (float(v) for v in row)
        acc = _accel_measurement(ax, ay, az)
        mag = _mag_unit(mx, my, mz)
        flags = []
        if state is None:
            pitch = roll = yaw = 0.0
            if acc is None:
                flags.append(FLAG_ACCEL_FALLBACK)
            else:
                pitch, roll = acc
            if mag is None:
                flags.append(FLAG_MAG_FALLBACK)
            else:
                yaw = level_heading(mag, pitch, roll)
        else:
            pitch, roll, yaw = state
            pitch_pred = pitch + gy * dt
            roll_pred = _wrap(roll + gx * dt, "roll_pred", hits)
            yaw_pred = _wrap(yaw + gz * dt, "yaw_pred", hits)
            if acc is None:
                flags.append(FLAG_ACCEL_FALLBACK)
                pitch, roll = pitch_pred, roll_pred
            else:
                pitch = pitch_pred + (1.0 - alpha) * _wrap(
                    acc[0] - pitch_pred, "pitch_innovation", hits)
                roll = _wrap(
                    roll_pred + (1.0 - alpha) * _wrap(acc[1] - roll_pred, "roll_innovation", hits),
                    "roll_new", hits)
            pitch = min(90.0, max(-90.0, pitch))
            if abs(pitch) > gimbal_guard_deg:
                flags.append(FLAG_GIMBAL_GUARD)
                yaw = yaw_pred
            elif mag is None:
                flags.append(FLAG_MAG_FALLBACK)
                yaw = yaw_pred
            else:
                innovation = _wrap(level_heading(mag, pitch, roll) - yaw_pred,
                                   "yaw_innovation", hits)
                yaw = _wrap(yaw_pred + (1.0 - alpha) * innovation, "yaw_new", hits)
        state = (pitch, roll, yaw)
        out.append((pitch, roll, yaw, tuple(flags)))
    return out


def lda_reference_scores(X, y, x_probe, shrinkage: float, priors=None):
    """Discriminant scores via an explicit dense inverse.

    Independent of the package implementation: naive per-class loops,
    np.linalg.inv, and the textbook linear discriminant form.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    classes = sorted(set(y.tolist()))
    d = X.shape[1]
    means = {}
    scatter = np.zeros((d, d))
    for cls in classes:
        rows = X[y == cls]
        means[cls] = rows.mean(axis=0)
        for row in rows:
            diff = (row - means[cls])[:, None]
            scatter += diff @ diff.T
    cov = scatter / (len(X) - len(classes))
    cov = (1 - shrinkage) * cov + shrinkage * (np.trace(cov) / d) * np.eye(d)
    inv = np.linalg.inv(cov)
    if priors is None:
        priors = {cls: float((y == cls).sum()) / len(y) for cls in classes}
    scores = []
    for cls in classes:
        mu = means[cls]
        scores.append(
            float(x_probe @ inv @ mu - 0.5 * mu @ inv @ mu + math.log(priors[cls]))
        )
    return classes, np.asarray(scores)


def lda_moments_reference(X, y, classes):
    """Class means and centered rows the way ``fit`` once took them, with
    numpy masks: ``X[y == c].mean(axis=0)`` for each of ``classes``, and
    each class's rows less their mean."""
    X = np.asarray(X, dtype=float)
    means = np.empty((len(classes), X.shape[1]))
    centered = np.empty_like(X)
    for i, cls in enumerate(classes):
        mask = y == cls
        means[i] = X[mask].mean(axis=0)
        centered[mask] = X[mask] - means[i]
    return means, centered


def cholesky_reference(a):
    """Lower Cholesky factor of a symmetric positive definite matrix, by
    LAPACK (``scipy.linalg``)."""
    return scipy.linalg.cholesky(a, lower=True)


def cho_solve_reference(lower, b):
    """Solution x of (L L') x = b, by LAPACK (``scipy.linalg``)."""
    return scipy.linalg.cho_solve((lower, True), b)


def lda_fold_scores(X, weights, biases) -> np.ndarray:
    """Linear scores ``x . W[:, c] + b[c]`` of each row of an (N, d) ``X``,
    each a left fold on Python floats: seeded with -0.0, ``x[j] * W[j, c]``
    added for j ascending, then ``b[c]``. The bit-exact route."""
    columns = np.asarray(weights, dtype=float).T.tolist()
    out = []
    for row in np.asarray(X, dtype=float).tolist():
        scores = []
        for column, bias in zip(columns, np.asarray(biases, dtype=float).tolist()):
            total = -0.0
            for xj, wj in zip(row, column):
                total = total + xj * wj
            scores.append(total + bias)
        out.append(scores)
    return np.array(out, dtype=float).reshape(len(out), len(columns))


def lda_matrix_scores(X, weights, biases) -> np.ndarray:
    """The same scores as one numpy product ``X @ W + b``: a reference to
    within rounding only, since BLAS sums in an order of its own."""
    return np.asarray(X, dtype=float) @ weights + biases


def tie_label_reference(classes, scores) -> int:
    """The label of the highest of one row of scores; of an exact tie,
    class 0 when it is tied, else the lowest tied label."""
    scores = [float(v) for v in scores]
    tied = [int(c) for c, v in zip(classes, scores) if v == max(scores)]
    return 0 if 0 in tied else min(tied)


def lda_reference_label(X, y, x_probe, shrinkage: float):
    """Argmin of Mahalanobis distance minus twice the log prior."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    classes = sorted(set(y.tolist()))
    d = X.shape[1]
    means = {}
    scatter = np.zeros((d, d))
    for cls in classes:
        rows = X[y == cls]
        means[cls] = rows.mean(axis=0)
        for row in rows:
            diff = (row - means[cls])[:, None]
            scatter += diff @ diff.T
    cov = scatter / (len(X) - len(classes))
    cov = (1 - shrinkage) * cov + shrinkage * (np.trace(cov) / d) * np.eye(d)
    inv = np.linalg.inv(cov)
    best_cls, best_val = None, None
    for cls in classes:
        diff = x_probe - means[cls]
        val = float(diff @ inv @ diff) - 2.0 * math.log((y == cls).sum() / len(y))
        if best_val is None or val < best_val - 1e-12:
            best_cls, best_val = cls, val
    return best_cls


def count_windows_by_enumeration(n: int, size: int, stride: int) -> int:
    count = 0
    start = 0
    while start + size <= n:
        count += 1
        start += stride
    return count


def nearest_target_class(window_mean_angles, targets: dict) -> int:
    """Nearest-mean rule on per-sensor angle vectors.

    targets maps class -> {sensor_index: 3-vector}; class 0 is the
    all-zero neutral target.
    """
    best_cls, best_d = None, None
    for cls, per_sensor in targets.items():
        d = 0.0
        for si, vec in per_sensor.items():
            diff = np.asarray(window_mean_angles[si]) - np.asarray(vec)
            d += float(diff @ diff)
        if best_d is None or d < best_d:
            best_cls, best_d = cls, d
    return best_cls


CSV_VALUE_COLUMNS = (
    "acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z", "mag_x", "mag_y", "mag_z",
)


def csv_reference_save(rec, path):
    """``rec`` written as a canonical CSV one row at a time, each float
    spelled by ``repr``: rows tick by tick, sensors in id order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for qi, seq in enumerate(rec.sequences, start=1):
            sids = sorted(seq.sensor_ids)
            for t, lab in enumerate(seq.labels.tolist()):
                for sid in sids:
                    row = seq.samples[t, seq.sensor_ids.index(sid)]
                    values = ",".join(map(repr, row.tolist()))
                    fh.write(f"{t},{sid},{values},{lab},{qi}\n")


def json_float_text(x: float) -> str:
    """A finite float as recording files spell it: ``repr``'s digits (the
    fewest that read back to x, the nearest of several), in plain decimal
    with a fraction digit when 1e-5 <= |x| < 1e16, else as d[.ddd]e[-]E
    with no plus and no leading zeros; ``-0.0`` for negative zero."""
    sign = "-" if math.copysign(1.0, x) < 0 else ""
    if x == 0:
        return sign + "0.0"
    _, digit_tuple, exp = Decimal(repr(abs(x))).normalize().as_tuple()
    digits = "".join(map(str, digit_tuple))
    e = len(digits) - 1 + exp  # |x| = d.ddd * 10**e
    if not -5 <= e <= 15:
        fraction = "." + digits[1:] if len(digits) > 1 else ""
        return f"{sign}{digits[0]}{fraction}e{e}"
    if exp >= 0:
        return sign + digits + "0" * exp + ".0"
    if e >= 0:
        return sign + digits[:e + 1] + "." + digits[e + 1:]
    return sign + "0." + "0" * (-e - 1) + digits


def csv_reference_load(path, scales=(1.0, 1.0, 1.0)):
    """A valid canonical CSV recording, read one row at a time with
    csv.DictReader into nested dicts.

    Returns one ``(labels, {sensor: (T, 9) array})`` per sequence number,
    in ascending order, with the acc, gyro and mag columns multiplied by
    ``scales``. Rows may come in any order.
    """
    ticks_of = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            values = [float(row[c]) for c in CSV_VALUE_COLUMNS]
            tick = ticks_of.setdefault(int(row["sequence"]), {}).setdefault(int(row["tick"]), {})
            tick[int(row["sensor_id"])] = (int(row["label"]), values)
    out = []
    for q in sorted(ticks_of):
        ticks = ticks_of[q]
        labels = np.array([next(iter(ticks[t].values()))[0] for t in range(len(ticks))],
                          dtype=np.int64)
        samples = {}
        for sensor in sorted(ticks[0]):
            arr = np.array([ticks[t][sensor][1] for t in range(len(ticks))], dtype=np.float64)
            for k, scale in enumerate(scales):
                arr[:, 3 * k:3 * k + 3] *= scale
            samples[sensor] = arr
        out.append((labels, samples))
    return out


def fv3_reference(angles, gyro) -> list[float]:
    """fv3 of one 8-tick window, by plain loops over Python floats.

    angles and gyro are (8, S, 3) nested sequences, whose ticks
    ``fv3_channels`` turns into rows of channels. Each half-window of 4
    ticks gives, per channel, the minimum, maximum, mean and sum of
    absolute values. Sums run left to right, ``((a0 + a1) + a2) + a3``; of
    two equal values (0.0 and -0.0) min and max keep the later one, and the
    first NaN met wins both, as numpy's ``minimum`` and ``maximum`` do.
    """
    return fv3_of_channels(fv3_channels(angles, gyro))


def fv3_channels(angles, gyro) -> list[list[float]]:
    """Per-tick channel rows of (T, S, 3) angles and gyro: the first
    sensor's pitch, roll and yaw, every other sensor's pitch and roll, then
    every sensor's gyro x, y and z."""
    rows = []
    for a, g in zip(angles, gyro):
        row = [float(v) for v in a[0]]
        for sensor in a[1:]:
            row += [float(sensor[0]), float(sensor[1])]
        for sensor in g:
            row += [float(v) for v in sensor]
        rows.append(row)
    return rows


def fv3_of_channels(rows) -> list[float]:
    """fv3 of 8 ticks of channel values (8 rows of C floats), channel-major
    then half-window, with the four statistics innermost; see
    ``fv3_reference``."""
    out = []
    for c in range(len(rows[0])):
        for half in (rows[:4], rows[4:]):
            values = [r[c] for r in half]
            lo = hi = total = values[0]
            abs_total = abs(values[0])
            for v in values[1:]:
                # A NaN, once met, stays; a later NaN replaces a number.
                if lo == lo and (v != v or v <= lo):
                    lo = v
                if hi == hi and (v != v or v >= hi):
                    hi = v
                total = total + v
                abs_total = abs_total + abs(v)
            out += [lo, hi, total / 4, abs_total]
    return out


# Sums of these differ by grouping: ((a + b) + c) + d is 1.0 for this
# rotation, a + (b + c + d) is 0.0.
CANCELLING = (1e16, 1.0, -1e16, 1.0)


def fv3_values(kind, shape, seed=0):
    """(T, ...) per-tick values that expose fv3 arithmetic order:
    ``cancelling`` cycles CANCELLING along T, shifted by each element's
    position, so every rotation of it fills some half-window;
    ``signed_zero`` is 0.0 and -0.0 at random."""
    if kind == "cancelling":
        return np.asarray(CANCELLING)[np.indices(shape).sum(axis=0) % 4]
    signs = np.random.default_rng(seed).integers(0, 2, size=shape)
    return np.where(signs == 1, -0.0, 0.0)


def assert_same_bits(actual, expected, equal_nan=False):
    """Equal values with equal signs; with ``equal_nan``, NaN where the
    expected value is NaN (any NaN) and equal bits elsewhere."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=equal_nan)
    numbers = ~np.isnan(expected) if equal_nan else True
    assert np.array_equal(np.signbit(actual) & numbers, np.signbit(expected) & numbers)


def synth_class_targets(class_count, sensor_ids, amplitude_deg):
    """Per-class, per-sensor 3-vector targets in degrees, built one dict
    entry at a time; returns (targets, class_sensor) for the motion
    classes (neutral has no entry)."""
    primary = sensor_ids[0]
    axis_dirs = [
        (1, 0, 0), (-1, 0, 0),
        (0, 1, 0), (0, -1, 0),
        (0, 0, 1), (0, 0, -1),
    ]
    extras = [
        (0.7071067811865476, 0.7071067811865476, 0.0),
        (0.7071067811865476, -0.7071067811865476, 0.0),
    ]
    targets = {}
    class_sensor = {}
    for cls in range(1, class_count):
        per_sensor = {sid: np.zeros(3) for sid in sensor_ids}
        if cls <= 6:
            sid = primary
            direction = np.asarray(axis_dirs[cls - 1], dtype=np.float64)
        else:
            extra_idx = cls - 7  # 0 or 1
            if len(sensor_ids) > 1 + extra_idx:
                sid = sensor_ids[1 + extra_idx]
                direction = np.asarray(axis_dirs[0], dtype=np.float64)
            elif len(sensor_ids) > 1:
                sid = sensor_ids[1]
                direction = np.asarray(axis_dirs[2 + extra_idx], dtype=np.float64)
            else:
                sid = primary
                direction = np.asarray(extras[extra_idx], dtype=np.float64)
        per_sensor[sid] = direction * amplitude_deg
        targets[cls] = per_sensor
        class_sensor[cls] = sid
    return targets, class_sensor


def synth_reference(class_count=9, sensor_count=3, noise_deg=0.5, spasm_deg=0.0, seed=0,
                    spasm_class=1, amplitudes=None, amplitude_deg=20.0, class_scale=None,
                    target_rotation_deg=0.0, target_bias_deg=0.0, rotation_seed=None,
                    shuffle_test_seq=False, n_sequences=3, motion_s=5.0, transition_s=0.5):
    """A 60 Hz synthetic session for valid arguments, built per class, per
    sensor and per tick from the same random stream as ``synth_session``.

    Returns ``([(labels, {sensor: (T, 9) array}), ...], meta)``.
    """
    sample_rate_hz = 60.0
    sensor_ids = list(range(1, sensor_count + 1))
    rng = np.random.default_rng(seed)
    motion_ticks = int(round(motion_s * sample_rate_hz))
    ramp = int(round(transition_s * sample_rate_hz))
    half = ramp // 2

    targets, class_sensor = synth_class_targets(class_count, sensor_ids, amplitude_deg)
    if class_scale:
        for cls, factor in class_scale.items():
            for sid in targets.get(int(cls), {}):
                targets[int(cls)][sid] = targets[int(cls)][sid] * float(factor)
    if target_rotation_deg or target_bias_deg:
        rot_rng = rng if rotation_seed is None else np.random.default_rng(rotation_seed)
        if target_rotation_deg:
            rot = _rotation_about_random_axis(rot_rng, target_rotation_deg)
            for cls in targets:
                for sid in targets[cls]:
                    targets[cls][sid] = rot @ targets[cls][sid]
        if target_bias_deg:
            direction = rot_rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            for cls in targets:
                sid = class_sensor[cls]
                targets[cls][sid] = targets[cls][sid] + direction * target_bias_deg

    base = {
        sid: np.array([
            rng.uniform(-5.0, 5.0),
            rng.uniform(-5.0, 5.0),
            rng.uniform(-60.0, 60.0),
        ])
        for sid in sensor_ids
    }
    amp_by_rep = list(amplitudes) if amplitudes is not None else [1.0] * 3

    sequences = []
    for qi in range(n_sequences):
        slots = [(cls, rep) for cls in range(1, class_count) for rep in range(3)]
        if shuffle_test_seq and qi == n_sequences - 1:
            rng.shuffle(slots)
        runs = [(0, motion_ticks, 1.0)]
        for cls, rep in slots:
            runs.append((cls, motion_ticks, amp_by_rep[rep]))
            runs.append((0, motion_ticks, 1.0))
        n_ticks = sum(r[1] for r in runs)

        labels = np.empty(n_ticks, dtype=np.int64)
        rel = {sid: np.zeros((n_ticks, 3)) for sid in sensor_ids}
        boundaries = []
        pos = 0
        for cls, length, amp in runs:
            labels[pos:pos + length] = cls
            if cls != 0:
                for sid in sensor_ids:
                    rel[sid][pos:pos + length] = targets[cls][sid] * amp
            if pos > 0:
                boundaries.append(pos)
            pos += length

        for b in boundaries:
            for sid in sensor_ids:
                before = rel[sid][b - half - 1].copy()
                after = rel[sid][b + half].copy()
                for i in range(2 * half):
                    w = 0.5 * (1.0 - math.cos(math.pi * (i + 0.5) / (2 * half)))
                    rel[sid][b - half + i] = before + w * (after - before)

        if spasm_deg > 0:
            for cls, start, end in label_runs(labels):
                if cls != spasm_class:
                    continue
                sid = class_sensor[cls]
                direction = targets[cls][sid]
                norm = np.linalg.norm(direction)
                if norm == 0:
                    continue
                direction = direction / norm
                lo, hi = start + half, end - half
                if hi <= lo:
                    continue
                u = _spasm_profile(rng, hi - lo)
                rel[sid][lo:hi] += np.outer(u * spasm_deg, direction)

        samples = {}
        for sid in sensor_ids:
            absolute = rel[sid] + base[sid]
            if noise_deg > 0:
                absolute = absolute + rng.normal(0.0, noise_deg, absolute.shape)
            samples[sid] = angles_to_raw(absolute, sample_rate_hz)
        sequences.append((labels, samples))

    meta = {
        "source": "synthetic",
        "seed": int(seed),
        "noise_deg": float(noise_deg),
        "spasm_deg": float(spasm_deg),
        "spasm_class": int(spasm_class),
        "amplitude_deg": float(amplitude_deg),
        "amplitudes": [float(a) for a in amp_by_rep],
        "ticks_per_sequence": len(sequences[0][0]),
        "motion_ticks": motion_ticks,
        "class_targets": {
            str(cls): {str(sid): [float(v) for v in vec] for sid, vec in per.items()}
            for cls, per in targets.items()
        },
        "class_sensors": {str(cls): int(sid) for cls, sid in class_sensor.items()},
        "base_orientation": {
            str(sid): [float(v) for v in vec] for sid, vec in base.items()
        },
    }
    return sequences, meta


def max_run_reference(predictions, reference) -> int:
    """Longest run of disagreements, one element at a time."""
    worst = run = 0
    for p, r in zip(predictions, reference):
        run = run + 1 if p != r else 0
        worst = max(worst, run)
    return worst


def misclassification_reference(predictions, labels) -> dict:
    """The fields of ``MisclassStructure`` by a dict of error pairs over
    Python ints: the neutral-error fraction (None without errors), the
    longest error run, and (true, predicted, count) sorted by -count,
    true, predicted."""
    predictions = [int(p) for p in predictions]
    labels = [int(l) for l in labels]
    errors = [(t, p) for p, t in zip(predictions, labels) if p != t]
    neutral_fraction = (
        sum(1 for _, p in errors if p == 0) / len(errors) if errors else None
    )
    pair_counts: dict[tuple[int, int], int] = {}
    for t, p in errors:
        pair_counts[(t, p)] = pair_counts.get((t, p), 0) + 1
    pairs = sorted(
        ((t, p, n) for (t, p), n in pair_counts.items()),
        key=lambda item: (-item[2], item[0], item[1]),
    )
    return {
        "neutral_fraction": neutral_fraction,
        "max_run": max_run_reference(predictions, labels),
        "pairs": pairs,
    }
