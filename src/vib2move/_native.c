/* Compiled rollout kernels; arithmetic twin of vib2move._reference.
 *
 * rollout_core and each rollout_grid lane run the one step loop, slide(),
 * which must stay operation-for-operation identical to the pure-Python
 * kernels so results are bit-reproducible across backends. Build it as
 * setup.py does: no -ffast-math, -ffp-contract=off (no FMA contraction),
 * -fno-builtin-sin/-fno-builtin-cos (no cos+sin -> sincos fusion) and
 * -fno-builtin-pow (pow(x, 2.0) stays the libm call that Python's x ** 2
 * makes, not x * x).
 *
 * cos/sin of the object angle are taken once per step: the drop check's
 * values at the end of a step are carried into the next step's top. Like
 * the Python kernels, and exact for the same reasons (see _reference.py):
 * wrap() returns a shifted angle already in (0, 2 pi] without fmod; the
 * contact offset (rx, ry) computed for the drop check is carried into the
 * next step's rotation, the check testing its rotated components with
 * the opposite sign; and the stop bookkeeping runs only when a travel or
 * rotation stop is set. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

static const double PI = 3.141592653589793;
static const double TWO_PI = 6.283185307179586;

enum { STATUS_BUDGET = 0, STATUS_REST = 1, STATUS_DROPPED = 2, STATUS_TARGET = 3 };

/* vib2move.se2.wrap_angle: wrap to (-pi, pi]; a shifted angle already in
 * (0, 2 pi] is what fmod and the lift would return, so it skips them */
static double
wrap(double a)
{
    double r = a + PI;
    if (r > 0.0 && r <= TWO_PI)
        return r - PI;
    r = fmod(r, TWO_PI);
    if (r <= 0.0)
        r += TWO_PI;
    return r - PI;
}

/* The slide loop both entries run: up to n_max steps from (*x, *y, *th)
 * about the fixed pressure center (pcx, pcy). A negative stop_eps,
 * stop_travel or stop_rot switches that stop off. With records non-NULL
 * each step appends its (x, y, th, uy, uw, k) tuple. Returns the
 * status, or -1 with an exception set; *x, *y, *th and *n_done hold where
 * the loop ended. */
static int
slide(double pcx, double pcy, double cdx, double cdy, double hx, double hy,
      double mg, double a3, double ds, long n_max, double stop_eps,
      double stop_travel, double stop_rot, PyObject *records,
      double *x, double *y, double *th, long *n_done)
{
    double ox = *x, oy = *y, oth = *th;
    double wy = -mg, wy2 = wy * wy, a3sq = a3 * a3;
    double travel = 0.0, rot = 0.0, step_t = 0.0, step_r = 0.0;
    int sized = stop_travel > 0.0 || stop_rot > 0.0;
    int status = STATUS_BUDGET;
    long done = 0;
    double co = cos(oth), so = sin(oth);
    double rx = ox - pcx, ry = oy - pcy;
    for (long i = 0; i < n_max; i++) {
        double xc = ox + co * cdx - so * cdy - pcx;
        if (stop_eps > 0.0 && oy + so * cdx + co * cdy < pcy && fabs(xc) < stop_eps) {
            status = STATUS_REST;
            break;
        }
        double wt = wy * xc;
        double tw = wt / a3sq;
        double n = sqrt(wy2 + tw * tw);
        double uy = wy / n;
        double uw = tw / n;
        double tt = wt / a3;
        double k = 1.0 / (wy2 + tt * tt);
        double h = ds * k;
        double phi = uw * h;
        if (sized) {
            /* predictive stop: do not take a step that would overshoot a
             * stop target by more than half the step itself */
            step_t = h * fabs(uy);
            step_r = fabs(phi);
            if (stop_travel > 0.0 && travel + step_t > stop_travel
                && stop_travel - travel < 0.5 * step_t) {
                status = STATUS_TARGET;
                break;
            }
            if (stop_rot > 0.0 && rot + step_r > stop_rot && stop_rot - rot < 0.5 * step_r) {
                status = STATUS_TARGET;
                break;
            }
        }
        double cphi = cos(phi), sphi = sin(phi);
        ox = pcx + cphi * rx - sphi * ry;
        oy = pcy + sphi * rx + cphi * ry + uy * h;
        oth = wrap(oth + phi);
        done = i + 1;
        if (records != NULL) {
            const double v[6] = {ox, oy, oth, uy, uw, k};
            PyObject *rec = PyTuple_New(6);
            for (Py_ssize_t j = 0; rec != NULL && j < 6; j++) {
                PyObject *f = PyFloat_FromDouble(v[j]);
                if (f == NULL)
                    Py_CLEAR(rec);
                else
                    PyTuple_SET_ITEM(rec, j, f);
            }
            int failed = rec == NULL || PyList_Append(records, rec) < 0;
            Py_XDECREF(rec);
            if (failed)
                return -1;
        }
        /* also the next step's angle terms and contact offset */
        co = cos(oth);
        so = sin(oth);
        rx = ox - pcx;
        ry = oy - pcy;
        double lx = co * rx + so * ry;
        double ly = co * ry - so * rx;
        if (lx > hx || -lx > hx || ly > hy || -ly > hy) {
            status = STATUS_DROPPED;
            break;
        }
        if (sized) {
            travel += step_t;
            rot += step_r;
            if ((stop_travel > 0.0 && travel >= stop_travel) || (stop_rot > 0.0 && rot >= stop_rot)) {
                status = STATUS_TARGET;
                break;
            }
        }
    }
    *x = ox;
    *y = oy;
    *th = oth;
    *n_done = done;
    return status;
}

static PyObject *
rollout_core(PyObject *self, PyObject *args)
{
    double ox, oy, oth, fx, fy, fth, pdx, pdy, cdx, cdy, hx, hy;
    double mass, gravity, a3, ds, stop_eps;
    double stop_travel = -1.0, stop_rot = -1.0;
    long n_max, n_done;
    int record;
    if (!PyArg_ParseTuple(args, "ddddddddddddddddldp|dd:rollout_core",
                          &ox, &oy, &oth, &fx, &fy, &fth, &pdx, &pdy, &cdx, &cdy,
                          &hx, &hy, &mass, &gravity, &a3, &ds, &n_max, &stop_eps,
                          &record, &stop_travel, &stop_rot))
        return NULL;
    PyObject *records = PyList_New(0);
    if (records == NULL)
        return NULL;
    double cf = cos(fth), sf = sin(fth);
    int status = slide(fx + cf * pdx - sf * pdy, fy + sf * pdx + cf * pdy, cdx, cdy, hx, hy,
                       mass * gravity, a3, ds, n_max, stop_eps, stop_travel, stop_rot,
                       record ? records : NULL, &ox, &oy, &oth, &n_done);
    if (status < 0) {
        Py_DECREF(records);
        return NULL;
    }
    return Py_BuildValue("ildddN", status, n_done, ox, oy, oth, records);
}

/* vib2move._reference.match_cost, with the scales already squared */
static double
match_cost(double x, double y, double th, double obs_x, double obs_y, double obs_th,
           double sigma_pos_sq, double sigma_theta_sq)
{
    return (pow(x - obs_x, 2.0) + pow(y - obs_y, 2.0)) / sigma_pos_sq
        + pow(wrap(th - obs_th), 2.0) / sigma_theta_sq;
}

static PyObject *
rollout_grid(PyObject *self, PyObject *args)
{
    double ox, oy, oth, fx, fy, fth, cdx, cdy, hx, hy, mass, gravity, a3, ds;
    double obs_x, obs_y, obs_th, sigma_pos, sigma_theta;
    PyObject *offsets;
    long n_max, n_done;
    if (!PyArg_ParseTuple(args, "ddddddOddddddddlddddd:rollout_grid",
                          &ox, &oy, &oth, &fx, &fy, &fth, &offsets, &cdx, &cdy,
                          &hx, &hy, &mass, &gravity, &a3, &ds, &n_max,
                          &obs_x, &obs_y, &obs_th, &sigma_pos, &sigma_theta))
        return NULL;
    PyObject *seq = PySequence_Fast(offsets, "offsets must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n_lanes = PySequence_Fast_GET_SIZE(seq);
    PyObject *costs = PyList_New(n_lanes);
    if (costs == NULL) {
        Py_DECREF(seq);
        return NULL;
    }

    double cf = cos(fth), sf = sin(fth);
    double sigma_pos_sq = pow(sigma_pos, 2.0), sigma_theta_sq = pow(sigma_theta, 2.0);
    for (Py_ssize_t j = 0; j < n_lanes; j++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(seq, j);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError, "offsets must hold (pdx, pdy) tuples");
            goto fail;
        }
        double pdx = PyFloat_AsDouble(PyTuple_GET_ITEM(pair, 0));
        double pdy = PyFloat_AsDouble(PyTuple_GET_ITEM(pair, 1));
        if (PyErr_Occurred())
            goto fail;
        double x = ox, y = oy, th = oth;
        slide(fx + cf * pdx - sf * pdy, fy + sf * pdx + cf * pdy, cdx, cdy, hx, hy,
              mass * gravity, a3, ds, n_max, -1.0, -1.0, -1.0, NULL, &x, &y, &th, &n_done);
        PyObject *cost = PyFloat_FromDouble(
            match_cost(x, y, wrap(th), obs_x, obs_y, obs_th, sigma_pos_sq, sigma_theta_sq));
        if (cost == NULL)
            goto fail;
        PyList_SET_ITEM(costs, j, cost);
    }
    Py_DECREF(seq);
    return costs;

fail:
    Py_DECREF(seq);
    Py_DECREF(costs);
    return NULL;
}

static PyMethodDef methods[] = {
    {"rollout_core", rollout_core, METH_VARARGS, "See vib2move._reference.rollout_core."},
    {"rollout_grid", rollout_grid, METH_VARARGS, "See vib2move._reference.rollout_grid."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "vib2move._native",
    "Compiled rollout kernels; arithmetic twin of vib2move._reference.", -1, methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&module);
}
