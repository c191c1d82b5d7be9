"""Pure-Python rollout kernel (reference implementation).

vib2move._native (src/vib2move/_native.c, a hand-written CPython
extension) implements the same function with identical arithmetic and
operation order, so both backends produce bit-identical trajectories.
Keep the two in lockstep when editing.

Both kernels compute cos/sin of the object angle once per step: the
values taken at the end of a step for the drop check are exactly the
ones the next step needs at its top, so they are carried over. This
kernel also hoists every loop invariant into a local; each hoisted value
is the same operation on the same operands as before, so no bit moves.
"""

import math

_TWO_PI = 2.0 * math.pi

STATUS_BUDGET = 0
STATUS_REST = 1
STATUS_DROPPED = 2
STATUS_TARGET = 3


def rollout_core(
    ox, oy, oth,
    fx, fy, fth,
    pdx, pdy,
    cdx, cdy,
    hx, hy,
    mass, gravity, a3,
    ds, n_max, stop_eps, record,
    stop_travel=-1.0, stop_rot=-1.0,
):
    """Advance the object pose through up to n_max sliding steps.

    The finger pose (fx, fy, fth) is fixed for the whole rollout; the
    pressure center (finger-frame offset pdx, pdy) is therefore constant
    and hoisted out of the loop. Each step rotates the object exactly
    about the pressure center by omega*ds*k and translates it by the
    linear twist part times ds*k.

    stop_travel / stop_rot (when positive) end the rollout once the
    accumulated slide distance at the contact, or the accumulated
    rotation, reaches the given amount; used for model-based pulse
    sizing, where the twist direction can change character mid-pulse.

    Returns (status, n_done, ox, oy, oth, records) where records holds one
    (ox, oy, oth, uy, uw, k, x_c) tuple per executed step when record is
    true. status: 0 = step budget used up, 1 = stopped at stable rest
    (|x_c| < stop_eps with the center of mass below the contact),
    2 = pressure center left the footprint (object dropped), 3 = stop
    target reached.
    """
    cos, sin, sqrt, fmod = math.cos, math.sin, math.sqrt, math.fmod
    pi, two_pi = math.pi, _TWO_PI
    cf = cos(fth)
    sf = sin(fth)
    pcx = fx + cf * pdx - sf * pdy
    pcy = fy + sf * pdx + cf * pdy
    mg = mass * gravity
    a3sq = a3 * a3
    wy = -mg
    wy2 = wy * wy
    rest_stop = stop_eps > 0.0
    travel_stop = stop_travel > 0.0
    rot_stop = stop_rot > 0.0
    records = []
    append = records.append
    status = STATUS_BUDGET
    n_done = 0
    travel = 0.0
    rot = 0.0
    co = cos(oth)
    so = sin(oth)
    for i in range(n_max):
        comx = ox + co * cdx - so * cdy
        comy = oy + so * cdx + co * cdy
        xc = comx - pcx
        if rest_stop and comy < pcy and abs(xc) < stop_eps:
            status = STATUS_REST
            break
        wt = wy * xc
        tw = wt / a3sq
        n = sqrt(wy2 + tw * tw)
        uy = wy / n
        uw = tw / n
        tt = wt / a3
        k = 1.0 / (wy2 + tt * tt)
        h = ds * k
        phi = uw * h
        # predictive stop: do not take a step that would overshoot a stop
        # target by more than half the step itself
        if travel_stop:
            step_t = h * abs(uy)
            if travel + step_t > stop_travel and stop_travel - travel < 0.5 * step_t:
                status = STATUS_TARGET
                break
        if rot_stop:
            step_r = abs(phi)
            if rot + step_r > stop_rot and stop_rot - rot < 0.5 * step_r:
                status = STATUS_TARGET
                break
        cphi = cos(phi)
        sphi = sin(phi)
        rx = ox - pcx
        ry = oy - pcy
        ox = pcx + cphi * rx - sphi * ry
        oy = pcy + sphi * rx + cphi * ry + uy * h
        oth = oth + phi
        r = fmod(oth + pi, two_pi)
        if r <= 0.0:
            r += two_pi
        oth = r - pi
        n_done = i + 1
        if record:
            append((ox, oy, oth, uy, uw, k, xc))
        # also the next step's angle terms
        co = cos(oth)
        so = sin(oth)
        dx = pcx - ox
        dy = pcy - oy
        lx = co * dx + so * dy
        ly = -so * dx + co * dy
        if lx > hx or -lx > hx or ly > hy or -ly > hy:
            status = STATUS_DROPPED
            break
        travel += h * abs(uy)
        rot += abs(phi)
        if (travel_stop and travel >= stop_travel) or (rot_stop and rot >= stop_rot):
            status = STATUS_TARGET
            break
    return status, n_done, ox, oy, oth, records
