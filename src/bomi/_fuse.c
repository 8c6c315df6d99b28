/* The compiled kernels of bomi, as one CPython extension: the
 * complementary filter and its measurements (bomi.fusion, and the tick of
 * bomi.pipeline's stream), the fv3 statistics of bomi.features, the LDA
 * class moments and scores of bomi.lda and the recording JSON and CSV
 * readers and writers of bomi.dataset_io. The filter has two entries over
 * one bootstrap and one advance: `run` for a whole sequence and `tick` for
 * one tick.
 *
 * Every filter value is formed by the same IEEE operations, in the same
 * order, as the Python expressions of tests/oracles.py, so its bits are
 * the ones CPython gives:
 *
 *   - `x % 360.0` is CPython's float_rem: fmod, the sign moved to the
 *     divisor's, and +0.0 for a zero remainder;
 *   - math.atan2 settles the zero and infinite cases itself (py_atan2);
 *   - math.degrees and math.radians multiply by 180/pi and pi/180;
 *   - the accelerometer pitch calls math.hypot itself, because CPython
 *     computes hypot on its own and the C library's differs in the last
 *     bit on some pairs.
 *
 * It must be compiled without contraction into fused multiply-adds, without
 * fast-math and with sin and cos kept apart (bomi/_build.py has the flags).
 *
 * run(samples, sensor, alpha, dt, guard, angles, flag_sets) -> tuple or int
 *     Filter one sensor of a C-contiguous (T, S, 9) float64 array from a
 *     bootstrap on its first tick; write raw (pitch, roll, yaw) into the
 *     sensor's column of the C-contiguous (T, S, 3) float64 array `angles`
 *     and return each tick's flags. A row that holds a NaN or an infinity
 *     stops the filter: return its tick instead.
 * tick(rows, last, state, bits, alpha, dt, guard, offset, pick, channels,
 *      gamma, means, k) -> int
 *     Advance every sensor of a stream one tick. `rows` is a list of S
 *     items in layout order, each 9 reals or None for a missing sensor.
 *     Every row is checked before anything changes: it must be 9 values
 *     that PyFloat_AsDouble turns into finite floats, and a sensor whose
 *     last row is NaN (it has had none yet) may not miss one. The
 *     C-contiguous float64 arrays `last` (S, 9) and `state` (S, 3) hold
 *     each sensor's last row, which a gap reuses, and its raw (pitch,
 *     roll, yaw): the filter's state, which the first row bootstraps and
 *     later rows advance. The (S,) uint8 `bits` takes each sensor's flag
 *     bits. Unless `offset` is None (calibration), write the tick's
 *     wrap(raw - offset) angles of the (S, 3) float64 `offset`, then its
 *     gyro values, picked by the (C,) intp `pick` (3S angles then 3S gyro
 *     values), into rows k and k + W of the (2W, C) float64 ring
 *     `channels`; write each sensor's sqrt(p*p + r*r + y*y) of its wrapped
 *     angles into columns k and k + W of its row of the (S, 2W) float64
 *     ring `gamma`, so that columns k + 1 .. k + W, the window, are
 *     contiguous; and write each sensor's window mean into the (S,)
 *     float64 `means`, which may not overlap `gamma`, with the bits of
 *     numpy's np.add.reduce(window) / W: pairwise_sum added to +0.0, then
 *     one division. While `offset` is None neither ring nor `means` is
 *     written. Return the OR of the sensors' bits, or -1 - si, with
 *     nothing changed, when the row of sensor si is refused.
 * measure(x, y, z[, pitch, roll]) -> (pitch, roll), float or None
 *     The measurements the filter blends toward, of one vector of floats:
 *     with three arguments the pitch and roll of the gravity reading
 *     (x, y, z), with five the heading of the field (x, y, z)
 *     tilt-compensated at pitch and roll. None when the vector is zero;
 *     ValueError, as math.cos gives, for an infinite pitch or roll.
 * fv3(channels, rows, out) -> None
 *     Write the fv3 vector of the 8-tick window at each start row of a
 *     C-contiguous (T, C) float64 channel array into the C-contiguous
 *     (N, C, 2, 4) float64 array `out`; `rows` is a C-contiguous (N,)
 *     intp array with 0 <= rows[i] <= T - 8.
 * score(weights, biases, classes, X, scores, labels) -> int
 *     Write the LDA scores of each row of a C-contiguous (N, d) float64
 *     matrix into the C-contiguous (N, K) float64 array `scores`: score c
 *     is a left fold over j ascending of X[i, j] * weights[j, c], seeded
 *     with -0.0, plus biases[c] (weights (d, K), biases (K,), both
 *     C-contiguous float64). So a row's scores are the same bits whatever
 *     rows are scored with it. Write each row's label into the (N,) int64
 *     array `labels`: the highest score wins, and of an exact tie the
 *     class 0 when it is among the tied, else the lowest tied of the (K,)
 *     int64 `classes`. Return the first row with a NaN score or an
 *     infinite best score, or -1.
 * moments(X, index, counts, means, centered) -> bool
 *     The class means and the centered rows LDA fits with, of a
 *     C-contiguous (N, d) float64 matrix whose row i is of class
 *     index[i] ((N,) int64, each in [0, K)), bit for bit numpy's
 *     X[index == c].mean(axis=0) and X[index == c] - mean: one sweep in
 *     row order adds each row into its class's sum, each sum is divided
 *     by its count, and a second sweep writes each row less its class's
 *     mean. A sum is numpy's axis-0 reduce, a left fold in row order from
 *     its identity +0.0 (so a column of -0.0 has the mean +0.0); when d is
 *     1, numpy sums a class's values pairwise, and so does the entry, then
 *     adds them to +0.0. `counts` ((K,) int64) must be the number of rows
 *     of each class; the C-contiguous float64 outputs are `means` (K, d)
 *     and `centered` (N, d), and neither may overlap X. Every index and
 *     count is checked before anything is written. Return whether X holds
 *     a NaN or an infinity.
 * read_json(data) -> (sequences, start, end) or None
 *     Read the `sequences` value of the bytes of a recording JSON in one
 *     pass. Each sequence's labels go into a bytearray of int64 and each
 *     sensor block into a bytearray of float64 rows of 9, with no Python
 *     object per number: `sequences` is a list of (labels, {sensor key:
 *     block}) pairs, and [start, end) the byte span of the value, which
 *     bomi.dataset_io replaces with [] for orjson to read the rest. It
 *     takes only a top-level object with one `sequences` key (orjson
 *     keeps the last of repeated keys), each of its keys free of escapes;
 *     a sequences array of objects of exactly `labels` and `sensors`;
 *     sensor keys of plain ASCII digits, each once; blocks of one or more
 *     rows of 9 numbers; labels that are integer tokens in [-2**63,
 *     2**63); JSON whitespace between tokens. Each other key's value is
 *     stepped over, its brackets balanced outside strings, however deep
 *     they nest. Every number is the correctly rounded double of its
 *     token, as orjson reads it and NumPy converts it (the integer token
 *     -0 is +0.0). Any other text, a token outside RFC 8259's number
 *     grammar and one that rounds to an infinity return None.
 * read_csv(data, start, ints, floats) -> bytearray or None
 *     Read the data rows of a recording CSV's bytes, from byte `start` (the
 *     first byte after the header line), in one pass, in file order: each
 *     row is one record of an int64 per index of `ints` then a float64 per
 *     index of `floats`, the fields of those 0-based columns, with no
 *     Python object per number. It takes rows of comma-separated fields
 *     that end with LF or CRLF (the last may end the text), blank lines
 *     between them, columns past and between the read ones (each
 *     printable ASCII but the quote, skipped) and rows of any length that
 *     hold every read column. An int64 field is an integer token of
 *     read_json's labels, a float64 field a number token of its samples,
 *     with the same value but for the integer token -0, which is -0.0 as
 *     np.loadtxt reads it. Any other byte (a quote, a control byte other
 *     than the line ends, non-ASCII, a lone CR), a short row and any other
 *     token (a space around it, `+1`, `.5`, `01`, `inf`, one that rounds
 *     to an infinity) return None.
 * write_json(labels, samples, ids) -> bytes
 *     The JSON text of one recording sequence, the bytes orjson writes for
 *     {"labels": [...], "sensors": {"<id>": [[9 values], ...], ...}}: the
 *     labels, then one block per sensor, keyed by its id in decimal, in
 *     ascending id order. `labels` is a C-contiguous (T,) int64 array,
 *     `samples` a C-contiguous (T, S, 9) float64 array of finite values
 *     with the sensors in column order, and `ids` a sequence of S
 *     distinct ints within 64 bits, the sensors' ids in that order; S is
 *     at most 64. bomi.dataset_io writes the text into the `[]` of the
 *     `sequences` of the rest of the object, which orjson writes.
 * write_csv(labels, samples, ids, sequence) -> bytes
 *     The data rows of one recording sequence as a recording CSV holds
 *     them: per tick, per sensor in ascending id order, the line
 *     `tick,id,v1,...,v9,label,sequence` and LF, the arguments those of
 *     write_json and `sequence` an int within 64 bits.
 *     Both writers spell a double as orjson does: repr's digits, the
 *     fewest that read back to it and the nearest of several (Ryū's), in
 *     plain decimal with a fraction digit for 1e-5 <= |x| < 1e16 (`1.0`,
 *     `0.00001`) and otherwise as d[.ddd]e[-]E with no plus and no leading
 *     zeros (`1e16`, `1e-7`, `5e-324`); negative zero is `-0.0`. Each
 *     checks every argument, and every sample, before it writes: an array
 *     that is not a buffer, ids that are not a sequence and an id or
 *     sequence number that is not an int are a TypeError, any other fault
 *     a ValueError.
 *
 * A tick's flags are the item of the 8-tuple `flag_sets` its flag bits
 * index: 1 zero accelerometer, 2 zero magnetometer, 4 gimbal guard; the
 * stream's bit 8 is a gap.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* The flag bits; only `tick` sets GAP: a sensor's row is missing and its
 * last row is reused. */
enum { ACCEL_FALLBACK = 1, MAG_FALLBACK = 2, GIMBAL_GUARD = 4, GAP = 8 };

static const double DEG = 180.0 / Py_MATH_PI;
static const double RAD = Py_MATH_PI / 180.0;

typedef struct {
    double pitch, roll, yaw;
} Attitude;

/* (a + 180.0) % 360.0 - 180.0, with -180 replaced by 180. Inside
 * [0, 360) the remainder is its dividend, so fmod runs only outside. */
static inline double
wrap(double a)
{
    double m = a + 180.0;
    if (!(m >= 0.0 && m < 360.0)) {
        m = fmod(m, 360.0);
        if (m) {
            if (m < 0.0)
                m += 360.0;
        }
        else {
            m = 0.0;
        }
    }
    m -= 180.0;
    return m == -180.0 ? 180.0 : m;
}

/* math.atan2 (CPython's m_atan2). */
static double
py_atan2(double y, double x)
{
    if (isnan(x) || isnan(y))
        return Py_NAN;
    if (isinf(y)) {
        if (isinf(x))
            return copysign(copysign(1.0, x) == 1.0 ? 0.25 * Py_MATH_PI
                                                    : 0.75 * Py_MATH_PI, y);
        return copysign(0.5 * Py_MATH_PI, y);
    }
    if (isinf(x) || y == 0.0) {
        if (copysign(1.0, x) == 1.0)
            return copysign(0.0, y);
        return copysign(Py_MATH_PI, y);
    }
    return atan2(y, x);
}

/* Tilt-compensated heading of the field m, in degrees: the unit field
 * de-rotated into the level frame by pitch and roll, then
 * atan2(-y_level, x_level). 0 for a zero vector (norm below 1e-12). */
static int
heading(const double *m, double pitch, double roll, double *yaw)
{
    double mx = m[0], my = m[1], mz = m[2];
    double norm = sqrt(mx * mx + my * my + mz * mz);
    if (norm < 1e-12)
        return 0;
    mx = mx / norm;
    my = my / norm;
    mz = mz / norm;
    double p = pitch * RAD, r = roll * RAD;
    double cp = cos(p), sp = sin(p), cr = cos(r), sr = sin(r);
    /* Level-frame components of the field: Ry(pitch) . Rx(roll) . m. */
    double x_level = mx * cp + my * sr * sp + mz * cr * sp;
    double y_level = my * cr - mz * sr;
    *yaw = py_atan2(-y_level, x_level) * DEG;
    return 1;
}

static inline int
zero_accel(const double *v)
{
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2] < 1e-24;
}

/* math.hypot, bound when the module is created. */
static PyObject *hypot_fn;

/* Pitch and roll measured from gravity, in degrees:
 * atan2(-x, hypot(y, z)) and atan2(y, z). -1 with an exception set when
 * math.hypot fails. */
static int
accel_meas(const double *v, double *pitch, double *roll)
{
    PyObject *yz[2] = {PyFloat_FromDouble(v[1]), PyFloat_FromDouble(v[2])};
    PyObject *h = yz[0] && yz[1] ? PyObject_Vectorcall(hypot_fn, yz, 2, NULL) : NULL;
    Py_XDECREF(yz[0]);
    Py_XDECREF(yz[1]);
    if (h == NULL)
        return -1;
    double hyp = PyFloat_AsDouble(h);
    Py_DECREF(h);
    if (hyp == -1.0 && PyErr_Occurred())
        return -1;
    *pitch = py_atan2(-v[0], hyp) * DEG;
    *roll = py_atan2(v[1], v[2]) * DEG;
    return 0;
}

/* The first tick: the instantaneous measurement, zero where it fails.
 * Returns the flag bits, or -1 with an exception set. */
static int
bootstrap(const double *v, Attitude *s)
{
    int flags = 0;
    double yaw;
    s->pitch = s->roll = s->yaw = 0.0;
    if (zero_accel(v))
        flags = ACCEL_FALLBACK;
    else if (accel_meas(v, &s->pitch, &s->roll) < 0)
        return -1;
    if (heading(v + 6, s->pitch, s->roll, &yaw))
        s->yaw = yaw;
    else
        flags |= MAG_FALLBACK;
    return flags;
}

/* Predict from the gyro, then blend each angle toward its measurement
 * along the shortest path; yaw holds the prediction past the guard.
 * Returns the flag bits, or -1 with an exception set. */
static int
advance(const double *v, double beta, double dt, double guard, Attitude *s)
{
    int flags = 0;
    double pitch_meas, roll_meas, heading_deg;
    double pitch = s->pitch + v[4] * dt;
    double roll = wrap(s->roll + v[3] * dt);
    double yaw = wrap(s->yaw + v[5] * dt);
    if (zero_accel(v)) {
        flags = ACCEL_FALLBACK;
    }
    else {
        if (accel_meas(v, &pitch_meas, &roll_meas) < 0)
            return -1;
        pitch = pitch + beta * wrap(pitch_meas - pitch);
        roll = wrap(roll + beta * wrap(roll_meas - roll));
    }
    /* min(90, max(-90, pitch)), NaN going to -90. */
    pitch = pitch > -90.0 ? pitch : -90.0;
    pitch = pitch < 90.0 ? pitch : 90.0;
    if (fabs(pitch) > guard)
        flags |= GIMBAL_GUARD;
    else if (heading(v + 6, pitch, roll, &heading_deg))
        yaw = wrap(yaw + beta * wrap(heading_deg - yaw));
    else
        flags |= MAG_FALLBACK;
    s->pitch = pitch;
    s->roll = roll;
    s->yaw = yaw;
    return flags;
}

/* Read n floats from args into out; -1 with an exception set on failure. */
static int
get_doubles(PyObject *const *args, double *out, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyFloat_AsDouble(args[i]);
        if (out[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* Get the C-contiguous buffer of `obj`: `ndim` dimensions of the sizes in
 * `shape` (-1 takes any size), with items of `itemsize` bytes whose
 * one-letter format is in `formats`. Raises ValueError naming `what`
 * otherwise. */
static int
get_array(PyObject *obj, Py_buffer *view, int flags, const char *formats,
          Py_ssize_t itemsize, int ndim, const Py_ssize_t *shape, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | flags) < 0)
        return -1;
    int ok = view->ndim == ndim && view->itemsize == itemsize
             && strlen(view->format) == 1 && strchr(formats, view->format[0]) != NULL;
    for (int i = 0; ok && i < ndim; i++)
        ok = shape[i] < 0 || view->shape[i] == shape[i];
    if (ok)
        return 0;
    PyErr_Format(PyExc_ValueError, "expected %s", what);
    PyBuffer_Release(view);
    return -1;
}

static PyObject *
fuse_run(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double p[3];   /* alpha, dt, guard */
    Py_buffer in, out;
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "run() takes 7 arguments");
        return NULL;
    }
    PyObject *flag_sets = args[6];
    if (!PyTuple_Check(flag_sets) || PyTuple_GET_SIZE(flag_sets) != 8) {
        PyErr_SetString(PyExc_TypeError, "flag_sets must be a tuple of 8 items");
        return NULL;
    }
    Py_ssize_t sensor = PyLong_AsSsize_t(args[1]);
    if ((sensor == -1 && PyErr_Occurred()) || get_doubles(args + 2, p, 3) < 0)
        return NULL;
    if (get_array(args[0], &in, 0, "d", sizeof(double), 3, (Py_ssize_t[]){-1, -1, 9},
                  "samples of float64 and shape (T, S, 9)") < 0)
        return NULL;
    Py_ssize_t n = in.shape[0], s = in.shape[1];
    if (get_array(args[5], &out, PyBUF_WRITABLE, "d", sizeof(double), 3,
                  (Py_ssize_t[]){n, s, 3}, "angles of float64 and shape (T, S, 3)") < 0) {
        PyBuffer_Release(&in);
        return NULL;
    }
    PyObject *flags = NULL;
    if (sensor < 0 || sensor >= s)
        PyErr_SetString(PyExc_IndexError, "run() sensor index out of range");
    else
        flags = PyTuple_New(n);
    if (flags != NULL) {
        const double *v = (const double *)in.buf + 9 * sensor;
        double *a = (double *)out.buf + 3 * sensor;
        double beta = 1.0 - p[0];
        Attitude st;
        for (Py_ssize_t t = 0; t < n; t++, v += 9 * s, a += 3 * s) {
            int k = 0;
            while (k < 9 && isfinite(v[k]))
                k++;
            if (k < 9) {
                Py_SETREF(flags, PyLong_FromSsize_t(t));
                break;
            }
            int bits = t ? advance(v, beta, p[1], p[2], &st) : bootstrap(v, &st);
            if (bits < 0) {
                Py_CLEAR(flags);
                break;
            }
            a[0] = st.pitch;
            a[1] = st.roll;
            a[2] = st.yaw;
            PyObject *f = PyTuple_GET_ITEM(flag_sets, bits);
            Py_INCREF(f);
            PyTuple_SET_ITEM(flags, t, f);
        }
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&in);
    return flags;
}

static PyObject *
fuse_measure(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double v[5];   /* x, y, z, then pitch and roll for a heading */
    double a, b;
    if (nargs != 3 && nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "measure() takes 3 or 5 arguments");
        return NULL;
    }
    if (get_doubles(args, v, nargs) < 0)
        return NULL;
    if (nargs == 3) {
        if (zero_accel(v))
            Py_RETURN_NONE;
        if (accel_meas(v, &a, &b) < 0)
            return NULL;
        return Py_BuildValue("(dd)", a, b);
    }
    if (!heading(v, v[3], v[4], &a))
        Py_RETURN_NONE;
    if (isinf(v[3]) || isinf(v[4])) {
        PyErr_SetString(PyExc_ValueError, "math domain error");
        return NULL;
    }
    return PyFloat_FromDouble(a);
}

/* Read one stream row, a list, tuple or other sized iterable of 9 reals,
 * into v: 0 when it is 9 finite values, 1 when it is not (len() or a
 * value's conversion raised TypeError, ValueError or OverflowError, as
 * math.isfinite and float do), -1 with any other exception set. */
static int
read_row(PyObject *row, double *v)
{
    PyObject *seq = NULL;
    if (PyList_CheckExact(row) || PyTuple_CheckExact(row)) {
        seq = row;
        Py_INCREF(seq);
    }
    else {
        Py_ssize_t n = PyObject_Size(row);
        if (n == 9)
            seq = PySequence_Fast(row, "");
        else if (n >= 0)
            return 1;
    }
    int rejected = seq == NULL || PySequence_Fast_GET_SIZE(seq) != 9;
    for (Py_ssize_t i = 0; !rejected && i < 9; i++) {
        /* A value's __float__ may shrink a list: read its size again. */
        if (i >= PySequence_Fast_GET_SIZE(seq)) {
            rejected = 1;
            break;
        }
        PyObject *x = PySequence_Fast_GET_ITEM(seq, i);
        Py_INCREF(x);
        v[i] = PyFloat_CheckExact(x) ? PyFloat_AS_DOUBLE(x) : PyFloat_AsDouble(x);
        Py_DECREF(x);
        rejected = (v[i] == -1.0 && PyErr_Occurred()) || !isfinite(v[i]);
    }
    Py_XDECREF(seq);
    if (!rejected)
        return 0;
    if (!PyErr_Occurred())
        return 1;
    if (PyErr_ExceptionMatches(PyExc_TypeError) || PyErr_ExceptionMatches(PyExc_ValueError)
            || PyErr_ExceptionMatches(PyExc_OverflowError)) {
        PyErr_Clear();
        return 1;
    }
    return -1;
}

/* numpy's pairwise sum of x[0 .. n) (pairwise_sum of its float64 add
 * loop): below 8 values a left fold from -0.0; up to 128, eight
 * interleaved accumulators combined as ((r0 + r1) + (r2 + r3)) +
 * ((r4 + r5) + (r6 + r7)), then the rest added in order; above, the two
 * halves, split at a multiple of 8, summed apart. */
static double
pairwise_sum(const double *x, Py_ssize_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (Py_ssize_t i = 0; i < n; i++)
            res = res + x[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        Py_ssize_t i;
        for (int j = 0; j < 8; j++)
            r[j] = x[j];
        for (i = 8; i < n - n % 8; i += 8) {
            for (int j = 0; j < 8; j++)
                r[j] = r[j] + x[i + j];
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res = res + x[i];
        return res;
    }
    Py_ssize_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(x, half) + pairwise_sum(x + half, n - half);
}

static PyObject *
fuse_tick(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer v[8];   /* last, state, bits, pick, channels, gamma, means, offset */
    int got = 0;
    double p[3];      /* alpha, dt, guard */
    double *buf = NULL;   /* per sensor: the row read, then 6 ring values */
    PyObject *result = NULL;
    if (nargs != 13) {
        PyErr_SetString(PyExc_TypeError, "tick() takes 13 arguments");
        return NULL;
    }
    PyObject *rows = args[0];
    int calibrating = args[7] == Py_None;
    if (!PyList_CheckExact(rows) && !PyTuple_CheckExact(rows)) {
        PyErr_SetString(PyExc_TypeError, "tick() rows must be a list or a tuple");
        return NULL;
    }
    Py_ssize_t k = PyLong_AsSsize_t(args[12]);
    if ((k == -1 && PyErr_Occurred()) || get_doubles(args + 4, p, 3) < 0)
        return NULL;
    if (get_array(args[1], &v[0], PyBUF_WRITABLE, "d", sizeof(double), 2,
                  (Py_ssize_t[]){-1, 9}, "last of float64 and shape (S, 9)") < 0)
        goto done;
    got++;
    Py_ssize_t s = v[0].shape[0];
    if (get_array(args[2], &v[1], PyBUF_WRITABLE, "d", sizeof(double), 2,
                  (Py_ssize_t[]){s, 3}, "state of float64 and shape (S, 3)") < 0)
        goto done;
    got++;
    if (get_array(args[3], &v[2], PyBUF_WRITABLE, "B", 1, 1, (Py_ssize_t[]){s},
                  "bits of uint8 and shape (S,)") < 0)
        goto done;
    got++;
    /* numpy spells intp 'l' or 'q'. */
    if (get_array(args[8], &v[3], 0, "nlq", sizeof(Py_ssize_t), 1, (Py_ssize_t[]){-1},
                  "pick of intp and shape (C,)") < 0)
        goto done;
    got++;
    Py_ssize_t c = v[3].shape[0];
    if (get_array(args[9], &v[4], PyBUF_WRITABLE, "d", sizeof(double), 2,
                  (Py_ssize_t[]){-1, c}, "channels of float64 and shape (2W, C)") < 0)
        goto done;
    got++;
    Py_ssize_t w = v[4].shape[0] / 2;
    if (w < 1 || v[4].shape[0] != 2 * w) {
        PyErr_SetString(PyExc_ValueError, "expected channels of a positive, even number of rows");
        goto done;
    }
    if (get_array(args[10], &v[5], PyBUF_WRITABLE, "d", sizeof(double), 2,
                  (Py_ssize_t[]){s, 2 * w}, "gamma of float64 and shape (S, 2W)") < 0)
        goto done;
    got++;
    if (get_array(args[11], &v[6], PyBUF_WRITABLE, "d", sizeof(double), 1,
                  (Py_ssize_t[]){s}, "means of float64 and shape (S,)") < 0)
        goto done;
    got++;
    if (!calibrating) {
        if (get_array(args[7], &v[7], 0, "d", sizeof(double), 2, (Py_ssize_t[]){s, 3},
                      "offset of None or float64 and shape (S, 3)") < 0)
            goto done;
        got++;
    }
    if (k < 0 || k >= w) {
        PyErr_Format(PyExc_ValueError, "tick() k %zd is outside [0, %zd]", k, w - 1);
        goto done;
    }
    const Py_ssize_t *pick = v[3].buf;
    for (Py_ssize_t i = 0; i < c; i++) {
        if (pick[i] < 0 || pick[i] >= 6 * s) {
            PyErr_Format(PyExc_ValueError, "tick() pick %zd is outside [0, %zd]",
                         pick[i], 6 * s - 1);
            goto done;
        }
    }
    if (PySequence_Fast_GET_SIZE(rows) != s) {
        PyErr_Format(PyExc_ValueError, "tick() expected %zd rows, got %zd", s,
                     PySequence_Fast_GET_SIZE(rows));
        goto done;
    }
    if ((buf = PyMem_New(double, s * 15)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    /* Read and check every row before any state changes. A sensor whose
     * last row is NaN has had no row yet: a gap there rejects the tick,
     * as does a row that is not 9 finite reals. A missing row reads as
     * NaN here. A value's __float__ may change `rows`: read its size
     * again. */
    double *last = v[0].buf, *read = buf, *values = buf + 9 * s;
    for (Py_ssize_t si = 0; si < s; si++) {
        PyObject *row = si < PySequence_Fast_GET_SIZE(rows)
                        ? PySequence_Fast_GET_ITEM(rows, si) : Py_None;
        int bad;
        if (row == Py_None) {
            read[9 * si] = Py_NAN;
            bad = isnan(last[9 * si]);
        }
        else {
            Py_INCREF(row);
            bad = read_row(row, read + 9 * si);
            Py_DECREF(row);
        }
        if (bad < 0)
            goto done;
        if (bad) {
            result = PyLong_FromSsize_t(-1 - si);
            goto done;
        }
    }

    /* Advance each sensor, from its bootstrap on its first row. */
    double beta = 1.0 - p[0];
    double *state = v[1].buf, *gamma = v[5].buf;
    const double *off = calibrating ? NULL : v[7].buf;
    uint8_t *bits = v[2].buf;
    int any = 0;
    for (Py_ssize_t si = 0; si < s; si++) {
        double *row = last + 9 * si, *a = state + 3 * si;
        int started = !isnan(row[0]), gap = 0;
        if (isnan(read[9 * si]))
            gap = GAP;
        else
            memcpy(row, read + 9 * si, 9 * sizeof(double));
        Attitude st = {a[0], a[1], a[2]};
        int b = started ? advance(row, beta, p[1], p[2], &st) : bootstrap(row, &st);
        if (b < 0)
            goto done;
        a[0] = st.pitch;
        a[1] = st.roll;
        a[2] = st.yaw;
        bits[si] = (uint8_t)(b | gap);
        any |= b | gap;
        if (off != NULL) {
            /* The tick's 3S angles, then its 3S gyro values. */
            double *ang = values + 3 * si;
            ang[0] = wrap(st.pitch - off[3 * si]);
            ang[1] = wrap(st.roll - off[3 * si + 1]);
            ang[2] = wrap(st.yaw - off[3 * si + 2]);
            memcpy(values + 3 * s + 3 * si, row + 3, 3 * sizeof(double));
            /* The squares summed in axis order, as tick_gamma does. */
            double *g = gamma + 2 * w * si;
            g[k] = g[k + w] = sqrt(ang[0] * ang[0] + ang[1] * ang[1] + ang[2] * ang[2]);
        }
    }
    if (off != NULL) {
        double *ch = (double *)v[4].buf + k * c, *means = v[6].buf;
        for (Py_ssize_t i = 0; i < c; i++)
            ch[i] = ch[w * c + i] = values[pick[i]];
        /* numpy's add.reduce starts from its identity, +0.0. */
        for (Py_ssize_t si = 0; si < s; si++)
            means[si] = (0.0 + pairwise_sum(gamma + 2 * w * si + k + 1, w)) / (double)w;
    }
    result = PyLong_FromLong(any);
done:
    PyMem_Free(buf);
    while (got > 0)
        PyBuffer_Release(&v[--got]);
    return result;
}

/* Ticks in each fv3 half-window. */
enum { HALF = 4 };

/* min, max, mean and absolute sum of the HALF values x[0], x[stride], ...
 * into o[0..3], with the bits numpy's minimum.reduce, maximum.reduce and
 * add.reduce(initial=-0.0) give: left folds, where of two equal values
 * (0.0 and -0.0) min and max keep the later one, the sums start from -0.0
 * and the mean is the sum over HALF. When the sum is NaN, min and max are
 * folded again in numpy's NaN-propagating form, so the first NaN met wins. */
static inline void
fv3_half(const double *x, Py_ssize_t stride, double *o)
{
    double lo = x[0], hi = x[0], sum = -0.0, abs_sum = -0.0;
    for (int j = 0; j < HALF; j++) {
        double v = x[j * stride];
        lo = lo < v ? lo : v;
        hi = hi > v ? hi : v;
        sum = sum + v;
        abs_sum = abs_sum + fabs(v);
    }
    if (sum != sum) {
        lo = hi = x[0];
        for (int j = 1; j < HALF; j++) {
            double v = x[j * stride];
            lo = (lo < v || lo != lo) ? lo : v;
            hi = (hi > v || hi != hi) ? hi : v;
        }
    }
    o[0] = lo;
    o[1] = hi;
    o[2] = sum / HALF;
    o[3] = abs_sum;
}

static PyObject *
fuse_fv3(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer ch, rw, out;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "fv3() takes 3 arguments");
        return NULL;
    }
    if (get_array(args[0], &ch, 0, "d", sizeof(double), 2, (Py_ssize_t[]){-1, -1},
                  "channels of float64 and shape (T, C)") < 0)
        return NULL;
    /* numpy spells intp 'l' or 'q'. */
    if (get_array(args[1], &rw, 0, "nlq", sizeof(Py_ssize_t), 1, (Py_ssize_t[]){-1},
                  "rows of intp and shape (N,)") < 0) {
        PyBuffer_Release(&ch);
        return NULL;
    }
    Py_ssize_t t = ch.shape[0], c = ch.shape[1], n = rw.shape[0];
    if (get_array(args[2], &out, PyBUF_WRITABLE, "d", sizeof(double), 4,
                  (Py_ssize_t[]){n, c, 2, 4}, "out of float64 and shape (N, C, 2, 4)") < 0) {
        PyBuffer_Release(&rw);
        PyBuffer_Release(&ch);
        return NULL;
    }
    /* Every row is checked before anything is written. */
    const Py_ssize_t *rows = rw.buf;
    Py_ssize_t i = 0;
    while (i < n && rows[i] >= 0 && rows[i] <= t - 2 * HALF)
        i++;
    if (i < n) {
        PyErr_Format(PyExc_ValueError, "fv3() row %zd is outside [0, %zd]",
                     rows[i], t - 2 * HALF);
    }
    else {
        const double *x = ch.buf;
        double *o = out.buf;
        for (i = 0; i < n; i++) {
            const double *w = x + rows[i] * c;
            /* Each channel's two halves of four statistics. */
            for (Py_ssize_t k = 0; k < c; k++, o += 2 * 4) {
                fv3_half(w + k, c, o);
                fv3_half(w + HALF * c + k, c, o + 4);
            }
        }
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&rw);
    PyBuffer_Release(&ch);
    if (i < n)
        return NULL;
    Py_RETURN_NONE;
}

/* Classes one pass scores: the accumulators of two rows stay in registers. */
enum { PASS = 10 };

/* Two lanes of doubles; GCC and Clang lower it to SSE2 on x86-64 and to
 * scalar code where there is no vector unit, with the same bits. */
typedef double v2 __attribute__((vector_size(16)));

/* The scores of classes c0 .. c0 + width - 1 for `rows` (1 or 2) rows of
 * x (row stride d) into s (row stride k): each a left fold over j
 * ascending of x[j] * w[j, c], seeded with -0.0, then plus b[c]. So a
 * score's bits do not depend on the rows scored beside it. Inlined with
 * constant `width` and `rows`, the class loops unroll; classes go in
 * pairs, and an odd width's last pair has an unused second lane. */
static inline __attribute__((always_inline)) void
fold(const double *x, const double *w, const double *b, Py_ssize_t d, Py_ssize_t k,
     Py_ssize_t c0, int width, int rows, double *s)
{
    v2 a0[PASS / 2], a1[PASS / 2];
    int pairs = (width + 1) / 2;
#pragma GCC unroll 5
    for (int p = 0; p < pairs; p++)
        a0[p] = a1[p] = (v2){-0.0, -0.0};
    for (Py_ssize_t j = 0; j < d; j++) {
        const double *wj = w + j * k + c0;
        v2 x0 = {x[j], x[j]}, x1 = rows == 2 ? (v2){x[d + j], x[d + j]} : x0;
#pragma GCC unroll 5
        for (int p = 0; p < pairs; p++) {
            v2 wp = {wj[2 * p], 2 * p + 1 < width ? wj[2 * p + 1] : 0.0};
            a0[p] = a0[p] + x0 * wp;
            if (rows == 2)
                a1[p] = a1[p] + x1 * wp;
        }
    }
#pragma GCC unroll 10
    for (int c = 0; c < width; c++) {
        s[c0 + c] = a0[c / 2][c % 2] + b[c0 + c];
        if (rows == 2)
            s[k + c0 + c] = a1[c / 2][c % 2] + b[c0 + c];
    }
}

/* fold with `width` and `rows` made constants. */
static void
fold_pass(const double *x, const double *w, const double *b, Py_ssize_t d, Py_ssize_t k,
          Py_ssize_t c0, int width, int rows, double *s)
{
    switch (width) {
#define FOLD(n)                                        \
    case n:                                            \
        if (rows == 2)                                 \
            fold(x, w, b, d, k, c0, n, 2, s);          \
        else                                           \
            fold(x, w, b, d, k, c0, n, 1, s);          \
        break;
    FOLD(1) FOLD(2) FOLD(3) FOLD(4) FOLD(5) FOLD(6) FOLD(7) FOLD(8) FOLD(9) FOLD(10)
#undef FOLD
    }
}

/* The label of one row of k scores: the highest wins; of an exact tie,
 * class 0 if it is tied, else the lowest tied label. Returns -1 when a
 * score is NaN or the highest is infinite. */
static int
row_label(const double *s, const int64_t *classes, Py_ssize_t k, int64_t *label)
{
    double best = -Py_HUGE_VAL;
    int nan = 0;
    for (Py_ssize_t c = 0; c < k; c++) {
        if (s[c] != s[c])
            nan = 1;
        else if (s[c] > best)
            best = s[c];
    }
    if (nan || !isfinite(best))
        return -1;
    int64_t out = 0;
    int found = 0;
    for (Py_ssize_t c = 0; c < k; c++) {
        if (s[c] == best) {
            int64_t l = classes[c];
            if (!found || (out != 0 && (l == 0 || l < out)))
                out = l;
            found = 1;
        }
    }
    *label = out;
    return 0;
}

static PyObject *
fuse_score(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer v[6];   /* weights, biases, classes, X, scores, labels */
    int got = 0;
    Py_ssize_t d = 0, k = 0, n = 0;
    PyObject *result = NULL;
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "score() takes 6 arguments");
        return NULL;
    }
    if (get_array(args[0], &v[0], 0, "d", sizeof(double), 2, (Py_ssize_t[]){-1, -1},
                  "weights of float64 and shape (d, K)") < 0)
        goto done;
    got++;
    d = v[0].shape[0];
    k = v[0].shape[1];
    if (get_array(args[1], &v[1], 0, "d", sizeof(double), 1, (Py_ssize_t[]){k},
                  "biases of float64 and shape (K,)") < 0)
        goto done;
    got++;
    /* numpy spells int64 'l' or 'q'. */
    if (get_array(args[2], &v[2], 0, "lq", sizeof(int64_t), 1, (Py_ssize_t[]){k},
                  "classes of int64 and shape (K,)") < 0)
        goto done;
    got++;
    if (get_array(args[3], &v[3], 0, "d", sizeof(double), 2, (Py_ssize_t[]){-1, d},
                  "X of float64 and shape (N, d)") < 0)
        goto done;
    got++;
    n = v[3].shape[0];
    if (get_array(args[4], &v[4], PyBUF_WRITABLE, "d", sizeof(double), 2,
                  (Py_ssize_t[]){n, k}, "scores of float64 and shape (N, K)") < 0)
        goto done;
    got++;
    if (get_array(args[5], &v[5], PyBUF_WRITABLE, "lq", sizeof(int64_t), 1,
                  (Py_ssize_t[]){n}, "labels of int64 and shape (N,)") < 0)
        goto done;
    got++;

    const double *x = v[3].buf, *w = v[0].buf, *b = v[1].buf;
    double *s = v[4].buf;
    int64_t *labels = v[5].buf;
    Py_ssize_t bad = -1;
    for (Py_ssize_t i = 0; i < n; i += 2) {
        int rows = n - i < 2 ? 1 : 2;
        for (Py_ssize_t c0 = 0; c0 < k; c0 += PASS)
            fold_pass(x + i * d, w, b, d, k, c0, (int)(k - c0 < PASS ? k - c0 : PASS), rows,
                      s + i * k);
        for (int r = 0; r < rows; r++) {
            if (row_label(s + (i + r) * k, v[2].buf, k, labels + i + r) < 0 && bad < 0)
                bad = i + r;
        }
    }
    result = PyLong_FromSsize_t(bad);
done:
    while (got > 0)
        PyBuffer_Release(&v[--got]);
    return result;
}

static PyObject *
fuse_moments(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer v[5];   /* X, index, counts, means, centered */
    int got = 0;
    Py_ssize_t n = 0, d = 0, k = 0, *end = NULL;
    PyObject *result = NULL;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "moments() takes 5 arguments");
        return NULL;
    }
    if (get_array(args[0], &v[0], 0, "d", sizeof(double), 2, (Py_ssize_t[]){-1, -1},
                  "X of float64 and shape (N, d)") < 0)
        goto done;
    got++;
    n = v[0].shape[0];
    d = v[0].shape[1];
    /* numpy spells int64 'l' or 'q'. */
    if (get_array(args[1], &v[1], 0, "lq", sizeof(int64_t), 1, (Py_ssize_t[]){n},
                  "index of int64 and shape (N,)") < 0)
        goto done;
    got++;
    if (get_array(args[2], &v[2], 0, "lq", sizeof(int64_t), 1, (Py_ssize_t[]){-1},
                  "counts of int64 and shape (K,)") < 0)
        goto done;
    got++;
    k = v[2].shape[0];
    if (get_array(args[3], &v[3], PyBUF_WRITABLE, "d", sizeof(double), 2,
                  (Py_ssize_t[]){k, d}, "means of float64 and shape (K, d)") < 0)
        goto done;
    got++;
    if (get_array(args[4], &v[4], PyBUF_WRITABLE, "d", sizeof(double), 2,
                  (Py_ssize_t[]){n, d}, "centered of float64 and shape (N, d)") < 0)
        goto done;
    got++;

    const double *x = v[0].buf;
    const int64_t *index = v[1].buf, *counts = v[2].buf;
    double *means = v[3].buf, *centered = v[4].buf;
    /* Every index and count is checked before anything is written: end[c]
     * tallies class c's rows (and marks its run when d is 1). */
    end = PyMem_Calloc(k + 1, sizeof *end);
    if (end == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (index[i] < 0 || index[i] >= k) {
            PyErr_Format(PyExc_ValueError, "moments() index %lld of row %zd is outside [0, %zd)",
                         (long long)index[i], i, k);
            goto done;
        }
        end[index[i]]++;
    }
    for (Py_ssize_t c = 0; c < k; c++) {
        if (counts[c] != end[c]) {
            PyErr_Format(PyExc_ValueError, "moments() counts[%zd] is %lld, but %zd rows "
                         "have index %zd", c, (long long)counts[c], end[c], c);
            goto done;
        }
    }

    if (d == 1) {
        /* numpy sums a one-column class pairwise: group each class's
         * values, in row order, in `centered`, and sum each run there. */
        for (Py_ssize_t c = 1; c < k; c++)
            end[c] += end[c - 1];
        for (Py_ssize_t i = n - 1; i >= 0; i--)
            centered[--end[index[i]]] = x[i];
        for (Py_ssize_t c = 0; c < k; c++)
            means[c] = (0.0 + pairwise_sum(centered + end[c], counts[c])) / (double)counts[c];
    }
    else {
        /* numpy's axis-0 reduce of a class's rows: each column a left fold
         * in row order from the add identity, +0.0. */
        memset(means, 0, (size_t)(k * d) * sizeof(double));
        for (Py_ssize_t i = 0; i < n; i++) {
            const double *row = x + i * d;
            double *sum = means + index[i] * d;
            for (Py_ssize_t j = 0; j < d; j++)
                sum[j] = sum[j] + row[j];
        }
        for (Py_ssize_t c = 0; c < k; c++) {
            for (Py_ssize_t j = 0; j < d; j++)
                means[c * d + j] = means[c * d + j] / (double)counts[c];
        }
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        const double *row = x + i * d, *mean = means + index[i] * d;
        double *out = centered + i * d;
        for (Py_ssize_t j = 0; j < d; j++)
            out[j] = row[j] - mean[j];
    }
    /* A non-finite value makes its class's mean non-finite; X is read
     * again only when a mean is, since a finite X can overflow a sum. */
    int nonfinite = 0;
    for (Py_ssize_t i = 0; !nonfinite && i < k * d; i++)
        nonfinite = !isfinite(means[i]);
    if (nonfinite) {
        nonfinite = 0;
        for (Py_ssize_t i = 0; !nonfinite && i < n * d; i++)
            nonfinite = !isfinite(x[i]);
    }
    result = PyBool_FromLong(nonfinite);
done:
    PyMem_Free(end);
    while (got > 0)
        PyBuffer_Release(&v[--got]);
    return result;
}

/* ---- Recording JSON ----
 *
 * A reader of the sequences of the one JSON shape bomi writes, which
 * answers REFUSED for any text outside it; bomi.dataset_io reads the rest
 * of the text, or all of a refused one, with orjson and json.loads. The
 * sequences it reads are valid JSON that orjson reads to the same values. */

enum { READ_OK = 0, REFUSED = 1, READ_FAILED = -1 };

/* The truncated 128-bit powers of five of the Eisel-Lemire conversion,
 * 5**q for q in [-27, 27] at pow5_128[q + 27], high word first: for q >= 0,
 * 5**q shifted so that bit 127 is set; for q < 0, floor(2**(b + 127) / 5**-q)
 * + 1, where b is the bit length of 5**-q. Filled when the module is
 * created, by exact integer arithmetic (fill_pow5_128). */
enum { MIN_Q = -27, MAX_Q = 27 };
static uint64_t pow5_128[MAX_Q - MIN_Q + 1][2];

typedef struct {
    const unsigned char *p, *end;
} Cursor;

static inline int
is_digit(unsigned char ch)
{
    return ch >= '0' && ch <= '9';
}

static inline void
skip_ws(Cursor *c)
{
    while (c->p < c->end && (*c->p == ' ' || *c->p == '\n' || *c->p == '\r' || *c->p == '\t'))
        c->p++;
}

/* Skip whitespace, then the byte ch if it is next: 1 when it was. */
static inline int
take(Cursor *c, unsigned char ch)
{
    skip_ws(c);
    if (c->p < c->end && *c->p == ch) {
        c->p++;
        return 1;
    }
    return 0;
}

/* An object key without escapes or control characters, and its colon:
 * the key's bytes are [*key, *key + *len). */
static int
read_key(Cursor *c, const unsigned char **key, Py_ssize_t *len)
{
    if (!take(c, '"'))
        return REFUSED;
    const unsigned char *k = c->p;
    while (c->p < c->end && *c->p != '"' && *c->p != '\\' && *c->p >= 0x20)
        c->p++;
    if (c->p >= c->end || *c->p != '"')
        return REFUSED;
    *key = k;
    *len = c->p - k;
    c->p++;
    return take(c, ':') ? READ_OK : REFUSED;
}

static inline int
key_is(const unsigned char *key, Py_ssize_t len, const char *name)
{
    return (size_t)len == strlen(name) && memcmp(key, name, len) == 0;
}

/* Step over one JSON value, checking only that its brackets, outside
 * strings, balance: orjson reads the value in place. */
static int
skip_value(Cursor *c)
{
    Py_ssize_t depth = 0;
    do {
        if (c->p >= c->end)
            return REFUSED;
        unsigned char ch = *c->p++;
        if (ch == '"') {
            while (c->p < c->end && *c->p != '"')
                c->p += *c->p == '\\' && c->p + 1 < c->end ? 2 : 1;
            if (c->p >= c->end)
                return REFUSED;
            c->p++;
        }
        else if (ch == '[' || ch == '{')
            depth++;
        else if (ch == ']' || ch == '}') {
            if (--depth < 0)
                return REFUSED;
        }
        else if (depth == 0) {
            /* A number or a literal runs to the next delimiter. */
            while (c->p < c->end && !memchr(" \t\n\r,]}", *c->p, 7))
                c->p++;
        }
    } while (depth > 0);
    return READ_OK;
}

/* w * 10**q rounded to the nearest double, ties to even, for w > 0 of at
 * most 19 digits and q in [MIN_Q, MAX_Q]: Eisel-Lemire (Lemire, "Number
 * parsing at a gigabyte per second", SPE 51(8), 2021), as fast_float's
 * compute_float does it. The top bits of w * 5**q come from one 64 x 64 ->
 * 128 product with the table's high word, and from a second with its low
 * word only when the first leaves the rounding open. The products decide
 * every case: Lemire shows it for q in [-27, 55], and Mushtak & Lemire ("Fast
 * number parsing without fallback", SPE 53(6), 2023) for every q. No value
 * in this range can overflow or go subnormal. */
static double
eisel_lemire(uint64_t w, int q)
{
    int lz = __builtin_clzll(w);
    w <<= lz;
    const uint64_t *t = pow5_128[q - MIN_Q];
    unsigned __int128 first = (unsigned __int128)w * t[0];
    uint64_t hi = (uint64_t)(first >> 64), lo = (uint64_t)first;
    /* The low 9 bits of hi, below the 53 bits, the round bit and one more,
     * all ones: a carry from the truncated product could still reach them. */
    if ((hi & 0x1FF) == 0x1FF) {
        uint64_t add = (uint64_t)(((unsigned __int128)w * t[1]) >> 64);
        lo += add;
        hi += lo < add;
    }
    int upper = (int)(hi >> 63), shift = upper + 9;
    uint64_t mant = hi >> shift;
    /* floor(q * log2(10)) + 63 + the binary exponent's bias, 1023. */
    int power2 = ((217706 * q) >> 16) + 63 + upper - lz + 1023;
    /* An exact halfway value (only for q in [-4, 23]) rounds to even: its
     * round bit is set, nothing below it is, and the bit above is clear. */
    if (lo <= 1 && q >= -4 && q <= 23 && (mant & 3) == 1 && (mant << shift) == hi)
        mant &= ~(uint64_t)1;
    mant = (mant + (mant & 1)) >> 1;
    if (mant >= (uint64_t)2 << 52) {
        mant = (uint64_t)1 << 52;
        power2++;
    }
    uint64_t bits = (mant & ~((uint64_t)1 << 52)) | (uint64_t)power2 << 52;
    double v;
    memcpy(&v, &bits, sizeof v);
    return v;
}

/* Whether p[0..8) are eight ASCII digits; if so, their value into *out,
 * read as one little-endian word and joined by three multiplications (SWAR,
 * as fast_float's parse_eight_digits_unrolled). */
static inline int
eight_digits(const unsigned char *p, uint64_t *out)
{
    uint64_t v;
    memcpy(&v, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    if ((((v + 0x4646464646464646) | (v - 0x3030303030303030)) & 0x8080808080808080) != 0)
        return 0;
    v -= 0x3030303030303030;
    v = v * 10 + (v >> 8);
    *out = (((v & 0x000000FF000000FF) * 0x000F424000000064)
            + (((v >> 16) & 0x000000FF000000FF) * 0x0000271000000001)) >> 32;
    return 1;
}

/* One JSON number token into *out: the correctly rounded double of its
 * value, as orjson reads it and NumPy converts it, with the integer token
 * -0 read as +0.0 (orjson makes it the int 0). REFUSED for a token outside
 * RFC 8259's grammar, or one that rounds to an infinity (orjson refuses
 * both); the delimiter after the token is the caller's to check. A token
 * whose nonzero digits all lie in its first 19 significant ones, w, with
 * w's last digit at a power of ten in [MIN_Q, MAX_Q], is eisel_lemire's;
 * any other goes to PyOS_string_to_double. */
static int
read_sample(Cursor *c, double *out)
{
    const unsigned char *p = c->p, *end = c->end, *start = p;
    int neg = 0, integer = 1, many = 0, nd = 0;
    uint64_t w = 0;      /* the first 19 significant digits */
    long e10 = 0;        /* the power of ten of w's last digit */
    if (p < end && *p == '-') {
        neg = 1;
        p++;
    }
    if (p >= end || !is_digit(*p))
        return REFUSED;
    if (*p == '0') {
        p++;
    }
    else {
        for (; p < end && is_digit(*p); p++) {
            if (nd < 19) {
                w = 10 * w + (*p - '0');
                nd++;
            }
            else {
                e10++;
                many |= *p != '0';
            }
        }
    }
    if (p < end && *p == '.') {
        integer = 0;
        if (++p >= end || !is_digit(*p))
            return REFUSED;
        if (w == 0) {
            for (; p < end && *p == '0'; p++)
                e10--;
        }
        /* Past the leading zeros every digit is significant: eight at a
         * time while they keep w within 19 digits. */
        uint64_t digits;
        while (nd <= 11 && end - p >= 8 && eight_digits(p, &digits)) {
            w = 100000000 * w + digits;
            nd += 8;
            e10 -= 8;
            p += 8;
        }
        for (; p < end && is_digit(*p); p++) {
            if (nd < 19) {
                w = 10 * w + (*p - '0');
                nd += w != 0;   /* leading zeros are not significant */
                e10--;
            }
            else {
                many |= *p != '0';
            }
        }
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        int eneg = 0;
        long x = 0;
        integer = 0;
        if (++p < end && (*p == '+' || *p == '-'))
            eneg = *p++ == '-';
        if (p >= end || !is_digit(*p))
            return REFUSED;
        for (; p < end && is_digit(*p); p++) {
            if (x < 100000000)
                x = 10 * x + (*p - '0');
        }
        e10 += eneg ? -x : x;
    }
    c->p = p;
    if (w == 0) {
        *out = neg && !integer ? -0.0 : 0.0;
        return READ_OK;
    }
    if (!many && e10 >= MIN_Q && e10 <= MAX_Q) {
        double v = eisel_lemire(w, (int)e10);
        *out = neg ? -v : v;
        return READ_OK;
    }
    /* Every other token: CPython's correctly rounded, locale-free reader. */
    char small[64], *text = small;
    size_t n = (size_t)(p - start);
    if (n >= sizeof(small) && (text = PyMem_Malloc(n + 1)) == NULL) {
        PyErr_NoMemory();
        return READ_FAILED;
    }
    memcpy(text, start, n);
    text[n] = '\0';
    double v = PyOS_string_to_double(text, NULL, NULL);
    if (text != small)
        PyMem_Free(text);
    if (v == -1.0 && PyErr_Occurred())
        return READ_FAILED;
    if (isinf(v))
        return REFUSED;
    *out = v;
    return READ_OK;
}

/* One integer token in [-2**63, 2**63) into *out; REFUSED otherwise. A
 * fraction or an exponent is left for the caller's delimiter check. */
static int
read_label(Cursor *c, int64_t *out)
{
    const unsigned char *p = c->p, *end = c->end;
    int neg = p < end && *p == '-';
    uint64_t v = 0, limit = neg ? (uint64_t)1 << 63 : ((uint64_t)1 << 63) - 1;
    p += neg;
    if (p >= end || !is_digit(*p))
        return REFUSED;
    if (*p == '0') {
        p++;
    }
    else {
        for (; p < end && is_digit(*p); p++) {
            unsigned d = *p - '0';
            if (v > (limit - d) / 10)
                return REFUSED;
            v = 10 * v + d;
        }
    }
    c->p = p;
    *out = neg && v ? -(int64_t)(v - 1) - 1 : (int64_t)v;
    return READ_OK;
}

/* A growing bytearray of fixed-size items. */
typedef struct {
    PyObject *bytes;
    Py_ssize_t len, cap;
} Buf;

/* Room for one more item of `size` bytes at buf_end; READ_FAILED with an
 * exception set when memory runs out. */
static int
buf_grow(Buf *b, Py_ssize_t size)
{
    if (b->len + size <= b->cap)
        return READ_OK;
    Py_ssize_t cap = b->cap ? 2 * b->cap : 4096;
    if (PyByteArray_Resize(b->bytes, cap) < 0)
        return READ_FAILED;
    b->cap = cap;
    return READ_OK;
}

static inline char *
buf_end(Buf *b)
{
    return PyByteArray_AS_STRING(b->bytes) + b->len;
}

/* A JSON array of items, each read by item() into the bytearray *out:
 * `empty` says whether [] is taken. */
static int
read_items(Cursor *c, Py_ssize_t size, int empty, int (*item)(Cursor *, char *),
           PyObject **out)
{
    Buf b = {PyByteArray_FromStringAndSize(NULL, 0), 0, 0};
    if (b.bytes == NULL)
        return READ_FAILED;
    int r = take(c, '[') ? READ_OK : REFUSED;
    if (r == READ_OK && !(empty && take(c, ']'))) {
        do {
            if ((r = buf_grow(&b, size)) == READ_OK) {
                skip_ws(c);
                if ((r = item(c, buf_end(&b))) == READ_OK)
                    b.len += size;
            }
        } while (r == READ_OK && take(c, ','));
        if (r == READ_OK && !take(c, ']'))
            r = REFUSED;
    }
    if (r == READ_OK && PyByteArray_Resize(b.bytes, b.len) < 0)
        r = READ_FAILED;
    if (r == READ_OK)
        *out = b.bytes;
    else
        Py_DECREF(b.bytes);
    return r;
}

static int
label_item(Cursor *c, char *to)
{
    return read_label(c, (int64_t *)to);
}

/* A row of 9 numbers. */
static int
row_item(Cursor *c, char *to)
{
    double *row = (double *)to;
    if (!take(c, '['))
        return REFUSED;
    for (int i = 0; i < 9; i++) {
        if (i && !take(c, ','))
            return REFUSED;
        skip_ws(c);
        int r = read_sample(c, row + i);
        if (r != READ_OK)
            return r;
    }
    return take(c, ']') ? READ_OK : REFUSED;
}

/* A `sensors` object: each key plain ASCII digits, at most once, its value
 * one or more rows of 9 numbers; into the dict `blocks`. */
static int
read_sensors(Cursor *c, PyObject *blocks)
{
    if (!take(c, '{'))
        return REFUSED;
    if (take(c, '}'))
        return READ_OK;
    int r;
    do {
        const unsigned char *key;
        Py_ssize_t len;
        if ((r = read_key(c, &key, &len)) != READ_OK)
            return r;
        for (Py_ssize_t i = 0; i < len; i++) {
            if (!is_digit(key[i]))
                return REFUSED;
        }
        PyObject *name = PyUnicode_FromStringAndSize((const char *)key, len), *block = NULL;
        if (name == NULL)
            return READ_FAILED;
        int has = len ? PyDict_Contains(blocks, name) : 1;
        r = has < 0 ? READ_FAILED : has ? REFUSED : read_items(c, 9 * sizeof(double), 0,
                                                                row_item, &block);
        if (r == READ_OK && PyDict_SetItem(blocks, name, block) < 0)
            r = READ_FAILED;
        Py_XDECREF(block);
        Py_DECREF(name);
    } while (r == READ_OK && take(c, ','));
    return r == READ_OK && !take(c, '}') ? REFUSED : r;
}

/* A sequence object, exactly `labels` and `sensors` in either order, into
 * the tuple (labels bytearray, {key: bytearray}). */
static int
read_sequence(Cursor *c, PyObject **out)
{
    PyObject *labels = NULL, *blocks = NULL;
    int r = take(c, '{') ? READ_OK : REFUSED;
    for (int i = 0; r == READ_OK && i < 2; i++) {
        const unsigned char *key;
        Py_ssize_t len;
        if (i && !take(c, ','))
            r = REFUSED;
        else if ((r = read_key(c, &key, &len)) != READ_OK)
            break;
        else if (key_is(key, len, "labels") && labels == NULL)
            r = read_items(c, sizeof(int64_t), 1, label_item, &labels);
        else if (key_is(key, len, "sensors") && blocks == NULL)
            r = (blocks = PyDict_New()) == NULL ? READ_FAILED : read_sensors(c, blocks);
        else
            r = REFUSED;
    }
    if (r == READ_OK && !take(c, '}'))
        r = REFUSED;
    if (r == READ_OK && (*out = PyTuple_Pack(2, labels, blocks)) == NULL)
        r = READ_FAILED;
    Py_XDECREF(labels);
    Py_XDECREF(blocks);
    return r;
}

static int
read_sequences(Cursor *c, PyObject *list)
{
    if (!take(c, '['))
        return REFUSED;
    if (take(c, ']'))
        return READ_OK;
    int r;
    do {
        PyObject *seq;
        if ((r = read_sequence(c, &seq)) == READ_OK) {
            r = PyList_Append(list, seq) < 0 ? READ_FAILED : READ_OK;
            Py_DECREF(seq);
        }
    } while (r == READ_OK && take(c, ','));
    return r == READ_OK && !take(c, ']') ? REFUSED : r;
}

static PyObject *
fuse_read_json(PyObject *module, PyObject *arg)
{
    Py_buffer view;
    if (PyObject_GetBuffer(arg, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    const unsigned char *data = view.buf;
    Cursor c = {data, data + view.len};
    PyObject *sequences = NULL, *result = NULL;
    Py_ssize_t start = 0, end = 0;
    int r = take(&c, '{') ? READ_OK : REFUSED;
    while (r == READ_OK) {
        const unsigned char *key;
        Py_ssize_t len;
        if ((r = read_key(&c, &key, &len)) != READ_OK)
            break;
        skip_ws(&c);
        if (!key_is(key, len, "sequences"))
            r = skip_value(&c);
        else if (sequences != NULL)
            r = REFUSED;   /* orjson would keep the second */
        else if ((sequences = PyList_New(0)) == NULL)
            r = READ_FAILED;
        else {
            start = c.p - data;
            r = read_sequences(&c, sequences);
            end = c.p - data;
        }
        if (r == READ_OK && !take(&c, ','))
            break;
    }
    if (r == READ_OK) {
        int closed = take(&c, '}');
        skip_ws(&c);
        if (!closed || c.p != c.end || sequences == NULL)
            r = REFUSED;
    }
    if (r == READ_OK)
        result = Py_BuildValue("(Onn)", sequences, start, end);
    Py_XDECREF(sequences);
    PyBuffer_Release(&view);
    if (r == REFUSED)
        Py_RETURN_NONE;
    return result;
}

/* ---- Recording CSV ----
 *
 * A reader of the data rows of a recording CSV, which answers REFUSED for
 * any text np.loadtxt might read otherwise or refuse; bomi.dataset_io then
 * reads the file with np.loadtxt. Its numbers are read_label's and
 * read_sample's tokens. */

/* Most columns a row is read into: the 4 keys and 9 values of a
 * recording need 13. */
enum { MAX_CSV_SLOTS = 32 };

/* Append the column indices of the sequence `cols` to col[*n ...]. */
static int
get_columns(PyObject *cols, Py_ssize_t *col, int *n)
{
    PyObject *seq = PySequence_Fast(cols, "read_csv() columns must be a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq);
    int ok = *n + len <= MAX_CSV_SLOTS;
    for (Py_ssize_t i = 0; ok && i < len; i++) {
        Py_ssize_t v = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        ok = v >= 0;
        col[(*n)++] = v;
    }
    Py_DECREF(seq);
    if (!ok)
        PyErr_Format(PyExc_ValueError, "read_csv() takes at most %d column indices, each "
                     "at least 0", MAX_CSV_SLOTS);
    return ok ? 0 : -1;
}

/* The end of an unused field: it runs over printable ASCII but the quote,
 * to the first other byte, which must be a delimiter. */
static inline const unsigned char *
skip_field(const unsigned char *p, const unsigned char *end)
{
    while (p < end && *p >= 0x20 && *p < 0x7f && *p != '"' && *p != ',')
        p++;
    return p;
}

/* The fields of one data row into the record `row`: slot s of the n_slots
 * (ordered by column in `order`) reads column col[s], as an int64 when
 * s < n_int and a float64 otherwise. Leaves c->p at the row's delimiter. */
static int
read_csv_row(Cursor *c, const Py_ssize_t *col, const int *order, int n_int, int n_slots,
             char *row)
{
    int k = 0;
    for (Py_ssize_t field = 0;; field++) {
        const unsigned char *start = c->p;
        if (k < n_slots && col[order[k]] == field) {
            /* A column named more than once is read once per slot. */
            for (; k < n_slots && col[order[k]] == field; k++) {
                int s = order[k], r;
                c->p = start;
                if (s < n_int)
                    r = read_label(c, (int64_t *)(row + 8 * s));
                else {
                    double *v = (double *)(row + 8 * s);
                    r = read_sample(c, v);
                    /* np.loadtxt reads the integer token -0 as -0.0. */
                    if (r == READ_OK && *start == '-' && *v == 0.0)
                        *v = -0.0;
                }
                if (r != READ_OK)
                    return r;
            }
        }
        else
            c->p = skip_field(c->p, c->end);
        if (c->p >= c->end || *c->p != ',')
            return k == n_slots ? READ_OK : REFUSED;   /* else a short row */
        c->p++;
    }
}

static PyObject *
fuse_read_csv(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "read_csv() takes 4 arguments");
        return NULL;
    }
    Py_ssize_t start = PyLong_AsSsize_t(args[1]), col[MAX_CSV_SLOTS];
    int n_int = 0, n_slots = 0, order[MAX_CSV_SLOTS];
    if ((start == -1 && PyErr_Occurred()) || get_columns(args[2], col, &n_int) < 0)
        return NULL;
    n_slots = n_int;
    if (get_columns(args[3], col, &n_slots) < 0)
        return NULL;
    /* The slots in column order (stable), so one pass over a row's fields
     * fills them. */
    for (int i = 0; i < n_slots; i++) {
        int j = i;
        for (; j > 0 && col[order[j - 1]] > col[i]; j--)
            order[j] = order[j - 1];
        order[j] = i;
    }
    Py_buffer view;
    if (PyObject_GetBuffer(args[0], &view, PyBUF_SIMPLE) < 0)
        return NULL;
    if (start < 0 || start > view.len) {
        PyErr_SetString(PyExc_ValueError, "read_csv() start lies outside the data");
        PyBuffer_Release(&view);
        return NULL;
    }
    const unsigned char *data = view.buf;
    Cursor c = {data + start, data + view.len};
    /* Each row but the last ends with a newline, so there are at most
     * newlines + 1 of them. */
    Py_ssize_t size = 8 * (Py_ssize_t)n_slots, rows = 0, most = 1;
    for (const unsigned char *q = c.p; (q = memchr(q, '\n', c.end - q)) != NULL; q++)
        most++;
    PyObject *out = size && most > PY_SSIZE_T_MAX / size ? PyErr_NoMemory()
                    : PyByteArray_FromStringAndSize(NULL, most * size);
    int r = out == NULL ? READ_FAILED : READ_OK;
    while (r == READ_OK && c.p < c.end) {
        /* A blank line holds no row. */
        if (*c.p == '\n' || (*c.p == '\r' && c.p + 1 < c.end && c.p[1] == '\n')) {
            c.p += *c.p == '\r' ? 2 : 1;
            continue;
        }
        r = read_csv_row(&c, col, order, n_int, n_slots,
                         PyByteArray_AS_STRING(out) + rows * size);
        if (r != READ_OK)
            break;
        rows++;
        /* The row ends at LF, CRLF or the end of the text; any other byte
         * (a quote, a control byte, non-ASCII, a lone CR, a token's tail)
         * is refused. */
        if (c.p < c.end && *c.p == '\n')
            c.p++;
        else if (c.p + 1 < c.end && c.p[0] == '\r' && c.p[1] == '\n')
            c.p += 2;
        else if (c.p < c.end)
            r = REFUSED;
    }
    PyBuffer_Release(&view);
    if (r == READ_OK && PyByteArray_Resize(out, rows * size) < 0)
        r = READ_FAILED;
    if (r == READ_OK)
        return out;
    Py_XDECREF(out);
    if (r == REFUSED)
        Py_RETURN_NONE;
    return NULL;
}

/* ---- Recording writers ----
 *
 * The writers of the sequences of a recording JSON and of the data rows of
 * a recording CSV. Every double is spelled by write_double, its digits
 * those of Ryū (Adams, "Ryū: fast float-to-string conversion", PLDI 2018,
 * after its reference d2d): the fewest that read back to the same double
 * and, of several such, the nearest to it, ties to an even last digit;
 * repr gives the same digits. The layout is orjson's (write_double). */

/* Ryū's multipliers, POW5_BITS wide and low word first: pow5_split[i] is
 * 5**i times the power of two that makes it POW5_BITS bits wide, rounded
 * down, and pow5_inv_split[i] is
 * floor(2**(b - 1 + POW5_BITS) / 5**i) + 1, where b is the bit length of
 * 5**i. Filled when the module is created, by exact integer arithmetic
 * (fill_ryu_tables). */
enum { POW5_BITS = 125, POW5_COUNT = 326, POW5_INV_COUNT = 342 };
static uint64_t pow5_split[POW5_COUNT][2], pow5_inv_split[POW5_INV_COUNT][2];

/* "00", "01", .. "99", and 10**k for k in [0, 17], filled when the module
 * is created. */
static char digit_pairs[200];
static uint64_t pow10[18];

/* The bit length of 5**e (1 for e = 0), for e in [0, 3528]; floor(log10(2**e))
 * for e in [0, 1650]; floor(log10(5**e)) for e in [0, 2620]. */
static inline int
pow5_bits(int e)
{
    return (int)(((uint32_t)e * 1217359) >> 19) + 1;
}

static inline int
log10_pow2(int e)
{
    return (int)(((uint32_t)e * 78913) >> 18);
}

static inline int
log10_pow5(int e)
{
    return (int)(((uint32_t)e * 732923) >> 20);
}

/* Whether 5**p divides v, v > 0. */
static inline int
multiple_of_pow5(uint64_t v, int p)
{
    int count = 0;
    for (; v % 5 == 0; v /= 5)
        count++;
    return count >= p;
}

/* floor(m * mul / 2**j) for a multiplier mul of POW5_BITS bits, j >= 64. */
static inline uint64_t
mul_shift(uint64_t m, const uint64_t *mul, int j)
{
    unsigned __int128 lo = (unsigned __int128)m * mul[0], hi = (unsigned __int128)m * mul[1];
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

/* The shortest digits of the finite nonzero double of the given fraction
 * and biased exponent bits: the integer returned times 10***e10 (Ryū's d2d,
 * as its reference implementation writes it). */
static uint64_t
shortest(uint64_t fraction, int exponent, int *e10)
{
    int e2;
    uint64_t m2;
    if (exponent == 0) {
        e2 = 1 - 1023 - 52 - 2;
        m2 = fraction;
    }
    else {
        e2 = exponent - 1023 - 52 - 2;
        m2 = (uint64_t)1 << 52 | fraction;
    }
    /* The doubles that read back as x are those in (mm, mp) times 2**e2,
     * mm = mv - 1 - mm_shift and mp = mv + 2, both ends included when m2
     * is even (reading rounds ties to even); the lower half is narrower
     * at a power of two. */
    int accept_bounds = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    int mm_shift = fraction != 0 || exponent <= 1;
    uint64_t vr, vp, vm;
    int e, vm_zeros = 0, vr_zeros = 0;
    if (e2 >= 0) {
        int q = log10_pow2(e2) - (e2 > 3);
        int i = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        e = q;
        vr = mul_shift(mv, pow5_inv_split[q], i);
        vp = mul_shift(mv + 2, pow5_inv_split[q], i);
        vm = mul_shift(mv - 1 - mm_shift, pow5_inv_split[q], i);
        if (q <= 21) {
            /* At most one of mv, mv + 2 and mv - 1 - mm_shift is a
             * multiple of 5. */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    }
    else {
        int q = log10_pow5(-e2) - (-e2 > 1);
        int i = -e2 - q;
        int j = q - (pow5_bits(i) - POW5_BITS);
        e = q + e2;
        vr = mul_shift(mv, pow5_split[i], j);
        vp = mul_shift(mv + 2, pow5_split[i], j);
        vm = mul_shift(mv - 1 - mm_shift, pow5_split[i], j);
        if (q <= 1) {
            /* mv has two trailing zero bits, mv - 1 - mm_shift one when
             * mm_shift is 1, and mv + 2 one. */
            vr_zeros = 1;
            if (accept_bounds)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        }
        else if (q < 63) {
            vr_zeros = (mv & (((uint64_t)1 << q) - 1)) == 0;
        }
    }
    /* Drop digits while the interval still holds a shorter number. */
    int removed = 0, last = 0;
    if (vm_zeros || vr_zeros) {
        for (; vp / 10 > vm / 10; removed++) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (int)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        if (vm_zeros) {
            for (; vm % 10 == 0; removed++) {
                vr_zeros &= last == 0;
                last = (int)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
            }
        }
        /* An exact ...50..0 rounds to even. */
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4;
        *e10 = e + removed;
        return vr + ((vr == vm && (!accept_bounds || !vm_zeros)) || last >= 5);
    }
    int round_up = 0;
    if (vp / 100 > vm / 100) {
        round_up = vr % 100 >= 50;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed += 2;
    }
    for (; vp / 10 > vm / 10; removed++) {
        round_up = vr % 10 >= 5;
        vr /= 10;
        vp /= 10;
        vm /= 10;
    }
    *e10 = e + removed;
    return vr + (vr == vm || round_up);
}

/* The n decimal digits of v into p[0 .. n). */
static inline void
write_digits(char *p, uint64_t v, int n)
{
    p += n;
    for (; n >= 2; n -= 2) {
        p -= 2;
        memcpy(p, digit_pairs + 2 * (v % 100), 2);
        v /= 100;
    }
    if (n)
        *--p = (char)('0' + v);
}

/* The 8 decimal digits of v < 10**8, leading zeros included, at p. */
static inline void
write_8(char *p, uint32_t v)
{
    uint32_t hi = v / 10000, lo = v % 10000;
    memcpy(p, digit_pairs + 2 * (hi / 100), 2);
    memcpy(p + 2, digit_pairs + 2 * (hi % 100), 2);
    memcpy(p + 4, digit_pairs + 2 * (lo / 100), 2);
    memcpy(p + 6, digit_pairs + 2 * (lo % 100), 2);
}

/* The longest text of write_double, "-1.2345678901234567e-308", and of
 * write_int, "-9223372036854775808". The writers copy fixed sizes, and
 * so write up to SPILL bytes past the end of what they have written. */
enum { DOUBLE_CHARS = 24, INT_CHARS = 20, SPILL = 32 };

/* The finite double x at p, as orjson spells it; return the end. With d
 * the shortest digits and E the exponent of the first (x = d.ddd * 10**E):
 * plain decimal with a fraction digit when -5 <= E <= 15 (1.0, 0.00001,
 * 1000000000000000.0), else d[.ddd]e[-]E with no plus and no leading
 * zeros (1e16, 1e-7, 5e-324); -0.0 for negative zero. Every copy has a
 * fixed size, so the compiler inlines it: the digits are laid out in a
 * buffer, then copied 16 bytes at a time, the bytes past the last digit
 * left for the text that follows to overwrite. */
static char *
write_double(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if (bits >> 63)
        *p++ = '-';
    uint64_t fraction = bits & (((uint64_t)1 << 52) - 1);
    int exponent = (int)(bits >> 52) & 0x7FF, e10;
    if (exponent == 0 && fraction == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    uint64_t d = shortest(fraction, exponent, &e10);
    /* The 17 digits of d < 10**17, zeros before, then 16 zeros; d's n
     * digits start at s. */
    char buf[33];
    uint64_t top = d / 100000000;
    buf[0] = (char)('0' + top / 100000000);
    write_8(buf + 1, (uint32_t)(top % 100000000));
    write_8(buf + 9, (uint32_t)(d % 100000000));
    memcpy(buf + 17, "0000000000000000", 16);
    int bit_length = 64 - __builtin_clzll(d);
    int n = bit_length * 1233 >> 12;                /* log10(2) ~ 1233 / 4096 */
    n += d >= pow10[n];
    const char *s = buf + 17 - n;
    int point = n + e10;                            /* E + 1 */
    if (e10 >= 0 && point <= 16) {
        memcpy(p, s, 16);
        memcpy(p + n, buf + 17, 16);
        memcpy(p + point, ".0", 2);
        return p + point + 2;
    }
    if (point > 0 && point <= 16) {
        memcpy(p, s, 16);
        p[point] = '.';
        memcpy(p + point + 1, s + point, 16);
        return p + n + 1;
    }
    if (point > -5 && point <= 0) {
        memcpy(p, "0.000000", 8);
        memcpy(p + 2 - point, s, 16);
        p[18 - point] = s[16];
        return p + 2 - point + n;
    }
    p[0] = s[0];
    if (n > 1) {
        p[1] = '.';
        memcpy(p + 2, s + 1, 16);
        p += n + 1;
    }
    else {
        p += 1;
    }
    *p++ = 'e';
    int exp10 = point - 1;
    if (exp10 < 0) {
        *p++ = '-';
        exp10 = -exp10;
    }
    int m = exp10 >= 100 ? 3 : exp10 >= 10 ? 2 : 1;
    write_digits(p, (uint64_t)exp10, m);
    return p + m;
}

/* The integer v in decimal at p; return the end. */
static char *
write_int(char *p, int64_t v)
{
    uint64_t u = (uint64_t)v;
    if (v < 0) {
        *p++ = '-';
        u = 0 - u;
    }
    int n = 1;
    for (uint64_t rest = u / 10; rest; rest /= 10)
        n++;
    write_digits(p, u, n);
    return p + n;
}

/* Most sensors a writer takes. */
enum { MAX_WRITE_SENSORS = 64 };

/* The arguments of both writers. */
typedef struct {
    Py_buffer labels, samples;
    Py_ssize_t n, s;
    int64_t ids[MAX_WRITE_SENSORS];
    int order[MAX_WRITE_SENSORS];   /* the sensors' columns in ascending id order */
} Written;

/* The ids of w's S sensors, in column order, from the sequence `ids`, and
 * the columns in ascending id order; -1 with an exception set unless they
 * are S distinct ints within 64 bits. */
static int
get_ids(PyObject *ids, const char *name, Written *w)
{
    /* A tuple, which no item's __index__ can shrink. */
    PyObject *items = PySequence_Tuple(ids);
    if (items == NULL)
        return -1;
    int ok = PyTuple_GET_SIZE(items) == w->s && w->s <= MAX_WRITE_SENSORS;
    if (!ok)
        PyErr_Format(PyExc_ValueError, "%s() takes one id per sensor, at most %d", name,
                     MAX_WRITE_SENSORS);
    for (int i = 0; ok && i < w->s; i++) {
        int overflow;
        long long id = PyLong_AsLongLongAndOverflow(PyTuple_GET_ITEM(items, i), &overflow);
        if (id == -1 && PyErr_Occurred()) {
            ok = 0;
            break;
        }
        int j = i;
        for (; j > 0 && w->ids[w->order[j - 1]] > id; j--)
            w->order[j] = w->order[j - 1];
        ok = !overflow && !(j > 0 && w->ids[w->order[j - 1]] == id);
        if (!ok)
            PyErr_Format(PyExc_ValueError, "%s() takes distinct ids within 64 bits", name);
        w->order[j] = i;
        w->ids[i] = id;
    }
    Py_DECREF(items);
    return ok ? 0 : -1;
}

/* Get the arguments labels, samples and ids of the writer `name`: a
 * C-contiguous (T,) int64 array, a C-contiguous (T, S, 9) float64 array of
 * finite values and S distinct ids; -1 with an exception set, and no
 * buffer held, otherwise. */
static int
get_written(PyObject *const *args, const char *name, Written *w)
{
    if (get_array(args[1], &w->samples, 0, "d", sizeof(double), 3, (Py_ssize_t[]){-1, -1, 9},
                  "samples of float64 and shape (T, S, 9)") < 0)
        return -1;
    w->n = w->samples.shape[0];
    w->s = w->samples.shape[1];
    /* numpy spells int64 'l' or 'q'. */
    if (get_array(args[0], &w->labels, 0, "lq", sizeof(int64_t), 1, (Py_ssize_t[]){w->n},
                  "labels of int64 and shape (T,)") < 0) {
        PyBuffer_Release(&w->samples);
        return -1;
    }
    int ok = get_ids(args[2], name, w) == 0;
    const double *v = w->samples.buf;
    for (Py_ssize_t i = 0; ok && i < 9 * w->n * w->s; i++) {
        if (!isfinite(v[i])) {
            PyErr_Format(PyExc_ValueError, "%s() takes finite samples", name);
            ok = 0;
        }
    }
    if (ok)
        return 0;
    PyBuffer_Release(&w->labels);
    PyBuffer_Release(&w->samples);
    return -1;
}

/* A bytes object of count * each + extra bytes to write into, or NULL
 * with MemoryError set when that passes the size limit. */
static PyObject *
new_text(Py_ssize_t count, Py_ssize_t each, Py_ssize_t extra)
{
    if (each && count > (PY_SSIZE_T_MAX - extra) / each)
        return PyErr_NoMemory();
    return PyBytes_FromStringAndSize(NULL, count * each + extra);
}

/* A field of a CSV row, spelled once: its text and length. */
typedef struct {
    char text[SPILL];
    size_t len;
} Field;

/* p with the field f at it; return the end. */
static inline char *
put(char *p, const Field *f)
{
    memcpy(p, f->text, SPILL);
    return p + f->len;
}

static PyObject *
fuse_write_json(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Written w;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "write_json() takes 3 arguments");
        return NULL;
    }
    if (get_written(args, "write_json", &w) < 0)
        return NULL;
    Py_ssize_t n = w.n, s = w.s;
    /* A label and its comma, and a row of 9 values with its brackets and
     * comma, per sensor. */
    PyObject *out = new_text(n, INT_CHARS + 1 + s * (9 * (DOUBLE_CHARS + 1) + 3),
                             32 + s * (INT_CHARS + 6) + SPILL);
    if (out != NULL) {
        char *start = PyBytes_AS_STRING(out), *p = start;
        const int64_t *labels = w.labels.buf;
        memcpy(p, "{\"labels\":[", 11);
        p += 11;
        for (Py_ssize_t t = 0; t < n; t++) {
            if (t)
                *p++ = ',';
            p = write_int(p, labels[t]);
        }
        memcpy(p, "],\"sensors\":{", 13);
        p += 13;
        for (Py_ssize_t k = 0; k < s; k++) {
            const double *row = (const double *)w.samples.buf + 9 * w.order[k];
            if (k)
                *p++ = ',';
            *p++ = '"';
            p = write_int(p, w.ids[w.order[k]]);
            memcpy(p, "\":[", 3);
            p += 3;
            for (Py_ssize_t t = 0; t < n; t++, row += 9 * s) {
                if (t)
                    *p++ = ',';
                *p++ = '[';
                for (int i = 0; i < 9; i++) {
                    if (i)
                        *p++ = ',';
                    p = write_double(p, row[i]);
                }
                *p++ = ']';
            }
            *p++ = ']';
        }
        memcpy(p, "}}", 2);
        /* On failure this drops out, so NULL goes back with the error. */
        _PyBytes_Resize(&out, p + 2 - start);
    }
    PyBuffer_Release(&w.labels);
    PyBuffer_Release(&w.samples);
    return out;
}

static PyObject *
fuse_write_csv(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Written w;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "write_csv() takes 4 arguments");
        return NULL;
    }
    int overflow;
    long long sequence = PyLong_AsLongLongAndOverflow(args[3], &overflow);
    if (sequence == -1 && PyErr_Occurred())
        return NULL;
    if (overflow) {
        PyErr_SetString(PyExc_ValueError, "write_csv() takes a sequence number within 64 bits");
        return NULL;
    }
    if (get_written(args, "write_csv", &w) < 0)
        return NULL;
    Py_ssize_t n = w.n, s = w.s;
    /* Each id with its comma, and the sequence number between a comma and
     * the newline, spelled once. */
    Field ids[MAX_WRITE_SENSORS] = {{""}}, tail = {","}, tick = {""}, label = {","};
    for (Py_ssize_t k = 0; k < s; k++) {
        char *end = write_int(ids[k].text, w.ids[w.order[k]]);
        *end++ = ',';
        ids[k].len = (size_t)(end - ids[k].text);
    }
    char *end = write_int(tail.text + 1, sequence);
    *end++ = '\n';
    tail.len = (size_t)(end - tail.text);
    /* The tick, the id, 9 values, the label and the sequence, their 12
     * commas and the newline. */
    PyObject *out = new_text(n, s * (4 * INT_CHARS + 9 * DOUBLE_CHARS + 13), SPILL);
    if (out != NULL) {
        char *start = PyBytes_AS_STRING(out), *p = start;
        const int64_t *labels = w.labels.buf;
        const double *row = w.samples.buf;
        for (Py_ssize_t t = 0; t < n; t++, row += 9 * s) {
            end = write_int(tick.text, t);
            *end++ = ',';
            tick.len = (size_t)(end - tick.text);
            label.len = (size_t)(write_int(label.text + 1, labels[t]) - label.text);
            for (Py_ssize_t k = 0; k < s; k++) {
                const double *v = row + 9 * w.order[k];
                p = put(p, &tick);
                p = put(p, &ids[k]);
                for (int i = 0; i < 9; i++) {
                    if (i)
                        *p++ = ',';
                    p = write_double(p, v[i]);
                }
                p = put(p, &label);
                p = put(p, &tail);
            }
        }
        _PyBytes_Resize(&out, p - start);
    }
    PyBuffer_Release(&w.labels);
    PyBuffer_Release(&w.samples);
    return out;
}

static PyMethodDef fuse_methods[] = {
    {"run", (PyCFunction)(void (*)(void))fuse_run, METH_FASTCALL,
     "Filter one sensor of a (T, S, 9) sample array; return its flags per tick, or the "
     "first tick whose row is not finite."},
    {"tick", (PyCFunction)(void (*)(void))fuse_tick, METH_FASTCALL,
     "Advance every sensor of a stream one tick and write its ring rows and window "
     "amplitude means; return the tick's flag bits, or -1 - si when sensor si's row is "
     "rejected."},
    {"measure", (PyCFunction)(void (*)(void))fuse_measure, METH_FASTCALL,
     "The pitch and roll of a gravity reading, or the tilt-compensated heading of a "
     "field; None for a zero vector."},
    {"fv3", (PyCFunction)(void (*)(void))fuse_fv3, METH_FASTCALL,
     "Write the fv3 vector of the window at each start row of (T, C) channels."},
    {"score", (PyCFunction)(void (*)(void))fuse_score, METH_FASTCALL,
     "Write the LDA scores and labels of the rows of an (N, d) matrix; return the first "
     "row with a NaN score or an infinite best, or -1."},
    {"moments", (PyCFunction)(void (*)(void))fuse_moments, METH_FASTCALL,
     "Write the class means and the centered rows of an (N, d) matrix; return whether it "
     "holds a NaN or an infinity."},
    {"read_json", (PyCFunction)fuse_read_json, METH_O,
     "Read a recording JSON's labels and sample blocks into bytearrays, with the byte "
     "span of its sequences value; None for text outside the shape it takes."},
    {"read_csv", (PyCFunction)(void (*)(void))fuse_read_csv, METH_FASTCALL,
     "Read a recording CSV's data rows into a bytearray of int64 and float64 records; "
     "None for text outside the shape it takes."},
    {"write_json", (PyCFunction)(void (*)(void))fuse_write_json, METH_FASTCALL,
     "The JSON text of a recording sequence's labels and sensor blocks, as orjson writes "
     "them."},
    {"write_csv", (PyCFunction)(void (*)(void))fuse_write_csv, METH_FASTCALL,
     "The CSV data rows of a recording sequence, sensors in id order within a tick."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fuse_module = {
    PyModuleDef_HEAD_INIT, "_fuse",
    "The compiled kernels of bomi: the complementary filter, the stream's tick, the fv3 "
    "statistics, the LDA class moments and scores and the recording JSON and CSV readers.",
    -1,
    fuse_methods,
};

/* Fill pow5_128 from 5**k, k in [0, 27], each below 2**63. */
static void
fill_pow5_128(void)
{
    uint64_t p = 1;
    for (int k = 0; k <= MAX_Q; k++, p *= 5) {
        int b = 64 - __builtin_clzll(p);
        pow5_128[k - MIN_Q][0] = p << (64 - b);
        pow5_128[k - MIN_Q][1] = 0;
        if (k == 0)
            continue;
        /* 2**(b + 127) / 5**k by long division in 64-bit digits: the top
         * digit, 2**(b - 1), is below 5**k, and the quotient below 2**128. */
        unsigned __int128 r = (unsigned __int128)((uint64_t)1 << (b - 1)) << 64;
        uint64_t hi = (uint64_t)(r / p);
        r = (r % p) << 64;
        uint64_t lo = (uint64_t)(r / p) + 1;
        pow5_128[-k - MIN_Q][0] = hi + (lo == 0);
        pow5_128[-k - MIN_Q][1] = lo;
    }
}

/* The words of the big numbers fill_ryu_tables keeps, 64 bits each, low
 * word first: enough for 2**1024 and for 5**341. */
enum { BIG_WORDS = 17 };

/* floor(x / 2**s) mod 2**128 into out, low word first, s < 64 * 15. */
static void
big_bits(const uint64_t *x, int s, uint64_t *out)
{
    int w = s / 64, r = s % 64;
    for (int i = 0; i < 2; i++)
        out[i] = r ? x[w + i] >> r | x[w + i + 1] << (64 - r) : x[w + i];
}

/* Fill pow5_split and pow5_inv_split from 5**i and floor(2**1024 / 5**i),
 * kept exactly in BIG_WORDS words each: dividing the second by 5 at each
 * step keeps it exact, since floor(floor(x / a) / b) = floor(x / (a b)),
 * and by the same rule its shift right is floor(2**(b - 1 + POW5_BITS) /
 * 5**i). Then fill digit_pairs and pow10. */
static void
fill_ryu_tables(void)
{
    uint64_t pow5[BIG_WORDS] = {1}, inv[BIG_WORDS] = {0};
    inv[BIG_WORDS - 1] = 1;
    for (int i = 0; i < POW5_INV_COUNT; i++) {
        int top = BIG_WORDS - 1;
        while (pow5[top] == 0)
            top--;
        int b = 64 * top + 64 - __builtin_clzll(pow5[top]);   /* the bit length of 5**i */
        if (i < POW5_COUNT && b >= POW5_BITS)
            big_bits(pow5, b - POW5_BITS, pow5_split[i]);
        else if (i < POW5_COUNT) {
            unsigned __int128 v = ((unsigned __int128)pow5[1] << 64 | pow5[0]) << (POW5_BITS - b);
            pow5_split[i][0] = (uint64_t)v;
            pow5_split[i][1] = (uint64_t)(v >> 64);
        }
        big_bits(inv, 64 * (BIG_WORDS - 1) - (b - 1 + POW5_BITS), pow5_inv_split[i]);
        pow5_inv_split[i][1] += ++pow5_inv_split[i][0] == 0;
        uint64_t carry = 0;
        for (int k = 0; k < BIG_WORDS; k++) {
            unsigned __int128 v = (unsigned __int128)pow5[k] * 5 + carry;
            pow5[k] = (uint64_t)v;
            carry = (uint64_t)(v >> 64);
        }
        uint64_t rem = 0;
        for (int k = BIG_WORDS - 1; k >= 0; k--) {
            unsigned __int128 v = (unsigned __int128)rem << 64 | inv[k];
            inv[k] = (uint64_t)(v / 5);
            rem = (uint64_t)(v % 5);
        }
    }
    for (int i = 0; i < 100; i++) {
        digit_pairs[2 * i] = (char)('0' + i / 10);
        digit_pairs[2 * i + 1] = (char)('0' + i % 10);
    }
    pow10[0] = 1;
    for (int k = 1; k < 18; k++)
        pow10[k] = 10 * pow10[k - 1];
}

PyMODINIT_FUNC
PyInit__fuse(void)
{
    fill_pow5_128();
    fill_ryu_tables();
    if (hypot_fn == NULL) {
        PyObject *math = PyImport_ImportModule("math");
        if (math == NULL)
            return NULL;
        hypot_fn = PyObject_GetAttrString(math, "hypot");
        Py_DECREF(math);
        if (hypot_fn == NULL)
            return NULL;
    }
    return PyModule_Create(&fuse_module);
}
