/* Compiled rollout kernel; arithmetic twin of vib2move._reference.
 *
 * Must stay operation-for-operation identical to the pure-Python kernel so
 * trajectories are bit-reproducible across backends. Build it as setup.py
 * does: no -ffast-math, -ffp-contract=off (no FMA contraction) and
 * -fno-builtin-sin/-fno-builtin-cos (no cos+sin -> sincos fusion).
 *
 * cos/sin of the object angle are taken once per step: the drop check's
 * values at the end of a step are carried into the next step's top. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

static const double PI = 3.141592653589793;
static const double TWO_PI = 6.283185307179586;

enum { STATUS_BUDGET = 0, STATUS_REST = 1, STATUS_DROPPED = 2, STATUS_TARGET = 3 };

static PyObject *
rollout_core(PyObject *self, PyObject *args)
{
    double ox, oy, oth, fx, fy, fth, pdx, pdy, cdx, cdy, hx, hy;
    double mass, gravity, a3, ds, stop_eps;
    double stop_travel = -1.0, stop_rot = -1.0;
    long n_max;
    int record;
    if (!PyArg_ParseTuple(args, "ddddddddddddddddldp|dd:rollout_core",
                          &ox, &oy, &oth, &fx, &fy, &fth, &pdx, &pdy, &cdx, &cdy,
                          &hx, &hy, &mass, &gravity, &a3, &ds, &n_max, &stop_eps,
                          &record, &stop_travel, &stop_rot))
        return NULL;

    double cf = cos(fth), sf = sin(fth);
    double pcx = fx + cf * pdx - sf * pdy;
    double pcy = fy + sf * pdx + cf * pdy;
    double mg = mass * gravity;
    double a3sq = a3 * a3;
    double travel = 0.0, rot = 0.0;
    long n_done = 0;
    int status = STATUS_BUDGET;
    PyObject *records = PyList_New(0);
    if (records == NULL)
        return NULL;

    double co = cos(oth), so = sin(oth);
    for (long i = 0; i < n_max; i++) {
        double comx = ox + co * cdx - so * cdy;
        double comy = oy + so * cdx + co * cdy;
        double xc = comx - pcx;
        if (stop_eps > 0.0 && comy < pcy && fabs(xc) < stop_eps) {
            status = STATUS_REST;
            break;
        }
        double wy = -mg;
        double wt = -mg * xc;
        double ty = wy;
        double tw = wt / a3sq;
        double n = sqrt(ty * ty + tw * tw);
        double uy = ty / n;
        double uw = tw / n;
        double tt = wt / a3;
        double k = 1.0 / (wy * wy + tt * tt);
        double h = ds * k;
        double phi = uw * h;
        /* predictive stop: do not take a step that would overshoot a stop
         * target by more than half the step itself */
        if (stop_travel > 0.0) {
            double step_t = h * fabs(uy);
            if (travel + step_t > stop_travel && stop_travel - travel < 0.5 * step_t) {
                status = STATUS_TARGET;
                break;
            }
        }
        if (stop_rot > 0.0) {
            double step_r = fabs(phi);
            if (rot + step_r > stop_rot && stop_rot - rot < 0.5 * step_r) {
                status = STATUS_TARGET;
                break;
            }
        }
        double cphi = cos(phi), sphi = sin(phi);
        double rx = ox - pcx, ry = oy - pcy;
        ox = pcx + cphi * rx - sphi * ry;
        oy = pcy + sphi * rx + cphi * ry + uy * h;
        oth = oth + phi;
        double r = fmod(oth + PI, TWO_PI);
        if (r <= 0.0)
            r += TWO_PI;
        oth = r - PI;
        n_done = i + 1;
        if (record) {
            const double v[7] = {ox, oy, oth, uy, uw, k, xc};
            PyObject *rec = PyTuple_New(7);
            for (Py_ssize_t j = 0; rec != NULL && j < 7; j++) {
                PyObject *f = PyFloat_FromDouble(v[j]);
                if (f == NULL)
                    Py_CLEAR(rec);
                else
                    PyTuple_SET_ITEM(rec, j, f);
            }
            int failed = rec == NULL || PyList_Append(records, rec) < 0;
            Py_XDECREF(rec);
            if (failed) {
                Py_DECREF(records);
                return NULL;
            }
        }
        /* also the next step's angle terms */
        co = cos(oth);
        so = sin(oth);
        double dx = pcx - ox, dy = pcy - oy;
        double lx = co * dx + so * dy;
        double ly = -so * dx + co * dy;
        if (lx > hx || -lx > hx || ly > hy || -ly > hy) {
            status = STATUS_DROPPED;
            break;
        }
        travel += h * fabs(uy);
        rot += fabs(phi);
        if ((stop_travel > 0.0 && travel >= stop_travel) || (stop_rot > 0.0 && rot >= stop_rot)) {
            status = STATUS_TARGET;
            break;
        }
    }
    return Py_BuildValue("ildddN", status, n_done, ox, oy, oth, records);
}

static PyMethodDef methods[] = {
    {"rollout_core", rollout_core, METH_VARARGS, "See vib2move._reference.rollout_core."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "vib2move._native",
    "Compiled rollout kernel; arithmetic twin of vib2move._reference.", -1, methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&module);
}
