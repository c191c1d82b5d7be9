"""Pure-Python rollout kernels (reference implementation).

rollout_core advances one object pose through a sliding rollout; each
step is the contact model's step inlined (contact.motion_direction and
ls_scale at the gravity balance wrench, moved as se2.apply_twist moves a
pose), which a test pins bit for bit. rollout_grid replays one pulse
under several pressure-center offsets, as the planner's matched filter
does, and returns one match_cost per offset.

vib2move._native (src/vib2move/_native.c, a hand-written CPython
extension) runs both functions on one shared step loop with identical
arithmetic and operation order, so both backends produce bit-identical
results. Keep the two in lockstep when editing.

Both kernels compute cos/sin of the object angle once per step: the
values taken at the end of a step for the drop check are exactly the
ones the next step needs at its top, so they are carried over. This
kernel also hoists every loop invariant into a local; each hoisted value
is the same operation on the same operands as before, so no bit moves.

Three more shortcuts leave every output bit where it was:
- In-range wrap. The angle wrap is fmod(t, 2 pi) of the shifted angle
  t = theta + pi, lifted into (0, 2 pi]. For 0 < t < 2 pi fmod returns t,
  and at t == 2 pi its 0 is lifted back to t, so such a t is used as it
  is; NaN, infinities and angles outside the range take the fmod path.
- Carried contact offset. Each step ends with (rx, ry) = object position
  minus pressure center, the operands the next step's rotation needs.
  The drop check tests co*rx + so*ry and co*ry - so*rx, the negated
  footprint coordinates of the pressure center: x - p is -(p - x)
  exactly under round to nearest (up to the sign of zero), and the check
  is two-sided, so it takes the same branch.
- Stop bookkeeping only when a stop is set. Without stop_travel or
  stop_rot (the plant, predict and grid rollouts) rollout_core skips the
  predictive stop tests, the travel/rotation sums and the target test;
  with one, the sums add the very step_t and step_r the tests used.
"""

import math

from .se2 import wrap_angle

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
    (ox, oy, oth, uy, uw, k) tuple per executed step when record is true.
    status: 0 = step budget used up, 1 = stopped at stable rest (|x_c| <
    stop_eps with the center of mass below the contact), 2 = pressure
    center left the footprint (object dropped), 3 = stop target reached.
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
    sized = travel_stop or rot_stop
    records = []
    append = records.append
    status = STATUS_BUDGET
    n_done = 0
    travel = 0.0
    rot = 0.0
    co = cos(oth)
    so = sin(oth)
    rx = ox - pcx
    ry = oy - pcy
    for i in range(n_max):
        xc = ox + co * cdx - so * cdy - pcx
        if rest_stop and oy + so * cdx + co * cdy < pcy and abs(xc) < stop_eps:
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
        if sized:
            # predictive stop: do not take a step that would overshoot a
            # stop target by more than half the step itself
            step_t = h * abs(uy)
            step_r = abs(phi)
            if (travel_stop and travel + step_t > stop_travel
                    and stop_travel - travel < 0.5 * step_t):
                status = STATUS_TARGET
                break
            if rot_stop and rot + step_r > stop_rot and stop_rot - rot < 0.5 * step_r:
                status = STATUS_TARGET
                break
        cphi = cos(phi)
        sphi = sin(phi)
        ox = pcx + cphi * rx - sphi * ry
        oy = pcy + sphi * rx + cphi * ry + uy * h
        t = oth + phi + pi
        if not 0.0 < t <= two_pi:
            t = fmod(t, two_pi)
            if t <= 0.0:
                t += two_pi
        oth = t - pi
        n_done = i + 1
        if record:
            append((ox, oy, oth, uy, uw, k))
        # also the next step's angle terms and contact offset
        co = cos(oth)
        so = sin(oth)
        rx = ox - pcx
        ry = oy - pcy
        lx = co * rx + so * ry
        ly = co * ry - so * rx
        if lx > hx or -lx > hx or ly > hy or -ly > hy:
            status = STATUS_DROPPED
            break
        if sized:
            travel += step_t
            rot += step_r
            if (travel_stop and travel >= stop_travel) or (rot_stop and rot >= stop_rot):
                status = STATUS_TARGET
                break
    return status, n_done, ox, oy, oth, records


def match_cost(x, y, theta, obs_x, obs_y, obs_theta, sigma_pos, sigma_theta):
    """Matched-filter misfit of a predicted end pose against an observed one.

    Squared position and wrapped angle errors, each over its observation
    scale squared. _native.c spells each ** 2 as pow(x, 2.0), the libm
    call CPython makes for it.
    """
    return ((x - obs_x) ** 2 + (y - obs_y) ** 2) / sigma_pos ** 2 \
        + wrap_angle(theta - obs_theta) ** 2 / sigma_theta ** 2


def rollout_grid(
    ox, oy, oth,
    fx, fy, fth,
    offsets,
    cdx, cdy,
    hx, hy,
    mass, gravity, a3,
    ds, n_max,
    obs_x, obs_y, obs_theta, sigma_pos, sigma_theta,
):
    """Replay one pulse under each pressure-center offset in offsets.

    Arguments are rollout_core's, with the list of (pdx, pdy) tuples in
    place of pdx, pdy, and the observed end pose and the observation
    scales of match_cost in place of the stop and record arguments.
    Each lane is rollout_core(..., pdx, pdy, ..., ds, n_max, -1.0, False)
    step for step: no rest, target or record branch, but the drop check,
    which ends the lane where the object left the footprint. Its end
    angle is wrapped once more, as a PoseSE2 of rollout_core's result
    would be, before it is scored.

    Returns a list with match_cost of each lane's end pose, in the order
    of offsets.
    """
    cos, sin, sqrt, fmod = math.cos, math.sin, math.sqrt, math.fmod
    pi, two_pi = math.pi, _TWO_PI
    cf = cos(fth)
    sf = sin(fth)
    mg = mass * gravity
    a3sq = a3 * a3
    wy = -mg
    wy2 = wy * wy
    co0 = cos(oth)
    so0 = sin(oth)
    costs = []
    for pdx, pdy in offsets:
        pcx = fx + cf * pdx - sf * pdy
        pcy = fy + sf * pdx + cf * pdy
        x, y, th, co, so = ox, oy, oth, co0, so0
        rx = x - pcx
        ry = y - pcy
        for _ in range(n_max):
            wt = wy * (x + co * cdx - so * cdy - pcx)
            tw = wt / a3sq
            n = sqrt(wy2 + tw * tw)
            tt = wt / a3
            h = ds * (1.0 / (wy2 + tt * tt))
            phi = tw / n * h
            cphi = cos(phi)
            sphi = sin(phi)
            x = pcx + cphi * rx - sphi * ry
            y = pcy + sphi * rx + cphi * ry + wy / n * h
            t = th + phi + pi
            if not 0.0 < t <= two_pi:
                t = fmod(t, two_pi)
                if t <= 0.0:
                    t += two_pi
            th = t - pi
            co = cos(th)
            so = sin(th)
            rx = x - pcx
            ry = y - pcy
            lx = co * rx + so * ry
            ly = co * ry - so * rx
            if lx > hx or -lx > hx or ly > hy or -ly > hy:
                break
        costs.append(match_cost(x, y, wrap_angle(th), obs_x, obs_y, obs_theta,
                                sigma_pos, sigma_theta))
    return costs
