"""Native (compiled-C) move step of the annealer.

:func:`repro.par.placement.place` spends its time in the per-move loop:
block/site draws, incremental bbox/HPWL deltas, the quantized-int timing
re-pricing, and the Metropolis accept test.  This module compiles one
*temperature step* of that loop (see :mod:`repro.native.build`); ``place``
calls it as its move ``step`` from the one Python schedule loop, which
keeps the cooling, range-limit adaptation, exit tests and telemetry, as
well as every random draw.  The Python twin of the step lives in ``place``
and runs when the backend is off.

Bit-identity contract
---------------------

Trajectories must match the Python kernel move for move:

* **Randomness stays in Python.**  The C loop consumes the same
  ``int64``/``float64`` blocks (``par.placement._integer_draws`` /
  ``gen.random``, one PCG64 stream) from shared buffers and invokes a
  ctypes callback to refill them *at exactly the Python kernel's refill points* (the
  ``ipos + 10 > RBUF`` pre-check at move start, the ``upos >= RBUF``
  check right before an acceptance draw) -- the two draw kinds interleave
  on one stream, so refill order is part of the trajectory.
* **Costs are exact integers** (quantized weights), so accumulation order
  cannot drift; the single float expression, the Metropolis test
  ``u < exp(-delta / tmax)``, calls the same libm ``exp`` CPython's
  ``math.exp`` wraps and divides the same exactly-converted integer.
* **Re-timing stays in Python** (criticality callbacks may run arbitrary
  user code): the C loop calls back out at the same accepted-move cadence
  and re-prices from the refreshed integer weights exactly like the twin.

Verified across the bench seeds by ``tests/test_native.py`` and gated by
``benchmarks/check_quality.py``.

Not thread-safe (static bound state in the shared object), mirroring the
single-threaded Python kernel; process pools get one copy per worker.
"""

from __future__ import annotations

import ctypes
from typing import Dict, Optional

import numpy as np

from .build import load_kernel

__all__ = [
    "annealer_kernel", "NativeAnnealer", "SOURCE", "ISTATE", "istate_counters",
]

#: istate slot layout shared with the C side.
ISTATE = {
    "ipos": 0, "upos": 1, "attempted": 2, "accepted": 3,
    "accepted_this_temp": 4, "accepted_since_retime": 5,
    "total_cost": 6, "timing_cost": 7, "mvid": 8, "abort": 9,
}
ISTATE_LEN = 10


def istate_counters(istate: np.ndarray) -> Dict[str, int]:
    """Named snapshot of the istate array, the annealer's counter out-param.

    The C kernel has no other channel back to Python: every counter it
    maintains (moves attempted/accepted, running costs, RNG cursors) lives
    in one int64 slot of ``istate``, so telemetry reads are plain array
    loads that cannot perturb the anneal trajectory.
    """
    return {name: int(istate[idx]) for name, idx in ISTATE.items()}

SOURCE = r"""
/* Native move step of repro.par.placement.place (one temperature).
 *
 * All cost arithmetic is int64 (exact, like Python's ints at these
 * magnitudes); the only float op is the Metropolis test, kept to the
 * same expression shape as the Python twin.  Compiled with
 * -ffp-contract=off -fno-fast-math (see repro.native.build).
 */
#include <stdint.h>
#include <math.h>

typedef void (*cb_fn_t)(int64_t);

/* istate slots (shared with Python; keep in sync with annealer.py) */
#define IPOS 0
#define UPOS 1
#define ATT 2
#define ACC 3
#define ACC_TEMP 4
#define ACC_RETIME 5
#define TOTAL 6
#define TIMING 7
#define MVID 8
#define ABORT 9

static int64_t *g_bgsite, *g_bx, *g_by, *g_occ;
static const int64_t *g_sx, *g_sy;
static const int64_t *g_pins_ptr, *g_pins, *g_nb_ptr, *g_nb;
static int64_t *g_bb, *g_ncost;
static const int64_t *g_wq;
static const int64_t *g_gblocks[2], *g_gsites[2];
static int64_t g_nblk[2], g_nsit[2];
static int64_t g_num_groups, g_logic_group, g_width, g_height;
static int64_t *g_ibuf;
static double *g_ubuf;
static int64_t g_rbuf;
static int64_t g_has_timing;
static const int64_t *g_tsrc, *g_tdst, *g_cb_ptr, *g_cb;
static int64_t *g_cdist, *g_cwq;
static int64_t g_nconn, g_retime_every;
static int64_t *g_net_mark;
static int64_t *g_upd_nid, *g_upd_bb, *g_upd_cost;
static int64_t *g_tsc_ci, *g_tsc_nd;
static cb_fn_t g_cb_fn;
static int64_t *g_istate;

void repro_anneal_bind(
    int64_t *block_gsite, int64_t *block_x, int64_t *block_y,
    int64_t *occupant, const int64_t *site_x, const int64_t *site_y,
    const int64_t *pins_ptr, const int64_t *pins,
    const int64_t *nb_ptr, const int64_t *nb,
    int64_t *bb, int64_t *net_cost, const int64_t *wq,
    const int64_t *gblocks0, int64_t nblk0,
    const int64_t *gsites0, int64_t nsit0,
    const int64_t *gblocks1, int64_t nblk1,
    const int64_t *gsites1, int64_t nsit1,
    int64_t num_groups, int64_t logic_group, int64_t width, int64_t height,
    int64_t *ibuf, double *ubuf, int64_t rbuf,
    int64_t has_timing, const int64_t *t_src, const int64_t *t_dst,
    const int64_t *cb_ptr, const int64_t *cb_conns,
    int64_t *c_dist, int64_t *cwq, int64_t nconn, int64_t retime_every,
    int64_t *net_mark,
    int64_t *upd_nid, int64_t *upd_bb, int64_t *upd_cost,
    int64_t *tsc_ci, int64_t *tsc_nd,
    cb_fn_t cb_fn, int64_t *istate)
{
    g_bgsite = block_gsite; g_bx = block_x; g_by = block_y;
    g_occ = occupant; g_sx = site_x; g_sy = site_y;
    g_pins_ptr = pins_ptr; g_pins = pins; g_nb_ptr = nb_ptr; g_nb = nb;
    g_bb = bb; g_ncost = net_cost; g_wq = wq;
    g_gblocks[0] = gblocks0; g_nblk[0] = nblk0;
    g_gsites[0] = gsites0; g_nsit[0] = nsit0;
    g_gblocks[1] = gblocks1; g_nblk[1] = nblk1;
    g_gsites[1] = gsites1; g_nsit[1] = nsit1;
    g_num_groups = num_groups; g_logic_group = logic_group;
    g_width = width; g_height = height;
    g_ibuf = ibuf; g_ubuf = ubuf; g_rbuf = rbuf;
    g_has_timing = has_timing; g_tsrc = t_src; g_tdst = t_dst;
    g_cb_ptr = cb_ptr; g_cb = cb_conns;
    g_cdist = c_dist; g_cwq = cwq; g_nconn = nconn;
    g_retime_every = retime_every;
    g_net_mark = net_mark;
    g_upd_nid = upd_nid; g_upd_bb = upd_bb; g_upd_cost = upd_cost;
    g_tsc_ci = tsc_ci; g_tsc_nd = tsc_nd;
    g_cb_fn = cb_fn; g_istate = istate;
}

/* Recompute one axis-or-both bbox after moving (ox,oy) -> (nx,ny); exact
 * translation of _bbox_after_move (the empty-site inline in the Python
 * kernel performs the identical updates). */
static void bbox_after_move(int64_t nid, int64_t ox, int64_t oy,
                            int64_t nx, int64_t ny, int64_t *o)
{
    const int64_t *c = g_bb + nid * 8;
    int64_t xmin = c[0], xmax = c[1], ymin = c[2], ymax = c[3];
    int64_t cxmin = c[4], cxmax = c[5], cymin = c[6], cymax = c[7];
    int64_t a = g_pins_ptr[nid], b = g_pins_ptr[nid + 1];
    if (nx != ox) {
        if ((ox == xmin && cxmin == 1 && nx > xmin) ||
            (ox == xmax && cxmax == 1 && nx < xmax)) {
            xmin = INT64_MAX; xmax = INT64_MIN;
            for (int64_t j = a; j < b; j++) {
                int64_t v = g_bx[g_pins[j]];
                if (v < xmin) xmin = v;
                if (v > xmax) xmax = v;
            }
            cxmin = 0; cxmax = 0;
            for (int64_t j = a; j < b; j++) {
                int64_t v = g_bx[g_pins[j]];
                if (v == xmin) cxmin++;
                if (v == xmax) cxmax++;
            }
        } else {
            if (ox == xmin) cxmin--;
            if (ox == xmax) cxmax--;
            if (nx < xmin) { xmin = nx; cxmin = 1; }
            else if (nx == xmin) cxmin++;
            if (nx > xmax) { xmax = nx; cxmax = 1; }
            else if (nx == xmax) cxmax++;
        }
    }
    if (ny != oy) {
        if ((oy == ymin && cymin == 1 && ny > ymin) ||
            (oy == ymax && cymax == 1 && ny < ymax)) {
            ymin = INT64_MAX; ymax = INT64_MIN;
            for (int64_t j = a; j < b; j++) {
                int64_t v = g_by[g_pins[j]];
                if (v < ymin) ymin = v;
                if (v > ymax) ymax = v;
            }
            cymin = 0; cymax = 0;
            for (int64_t j = a; j < b; j++) {
                int64_t v = g_by[g_pins[j]];
                if (v == ymin) cymin++;
                if (v == ymax) cymax++;
            }
        } else {
            if (oy == ymin) cymin--;
            if (oy == ymax) cymax--;
            if (ny < ymin) { ymin = ny; cymin = 1; }
            else if (ny == ymin) cymin++;
            if (ny > ymax) { ymax = ny; cymax = 1; }
            else if (ny == ymax) cymax++;
        }
    }
    o[0] = xmin; o[1] = xmax; o[2] = ymin; o[3] = ymax;
    o[4] = cxmin; o[5] = cxmax; o[6] = cymin; o[7] = cymax;
}

/* Full rescan (both endpoints of a shared net moved). */
static void bbox_rescan(int64_t nid, int64_t *o)
{
    int64_t a = g_pins_ptr[nid], b = g_pins_ptr[nid + 1];
    int64_t xmin = INT64_MAX, xmax = INT64_MIN;
    int64_t ymin = INT64_MAX, ymax = INT64_MIN;
    for (int64_t j = a; j < b; j++) {
        int64_t x = g_bx[g_pins[j]], y = g_by[g_pins[j]];
        if (x < xmin) xmin = x;
        if (x > xmax) xmax = x;
        if (y < ymin) ymin = y;
        if (y > ymax) ymax = y;
    }
    int64_t cxmin = 0, cxmax = 0, cymin = 0, cymax = 0;
    for (int64_t j = a; j < b; j++) {
        int64_t x = g_bx[g_pins[j]], y = g_by[g_pins[j]];
        if (x == xmin) cxmin++;
        if (x == xmax) cxmax++;
        if (y == ymin) cymin++;
        if (y == ymax) cymax++;
    }
    o[0] = xmin; o[1] = xmax; o[2] = ymin; o[3] = ymax;
    o[4] = cxmin; o[5] = cxmax; o[6] = cymin; o[7] = cymax;
}

/* One temperature step: moves_per_temp move attempts. */
void repro_anneal_run(int64_t moves_per_temp, double tmax, double range2,
                      int64_t rl, int64_t span)
{
    int64_t ipos = g_istate[IPOS], upos = g_istate[UPOS];
    for (int64_t mv = 0; mv < moves_per_temp; mv++) {
        /* Up to 10 integer draws per move (group + block + site picks). */
        if (ipos + 10 > g_rbuf) {
            g_istate[IPOS] = ipos; g_istate[UPOS] = upos;
            g_cb_fn(0);
            if (g_istate[ABORT]) return;
            ipos = 0;
        }
        int64_t gi;
        if (g_num_groups == 1) gi = 0;
        else { gi = g_ibuf[ipos] & 1; ipos++; }
        const int64_t *blocks = g_gblocks[gi];
        const int64_t *gsites = g_gsites[gi];
        int64_t nblk = g_nblk[gi], nsit = g_nsit[gi];
        int64_t block = blocks[g_ibuf[ipos] % nblk]; ipos++;
        int64_t cur_g = g_bgsite[block];
        int64_t cx = g_bx[block], cy = g_by[block];
        int64_t target_g;
        if (g_logic_group && gi == 0) {
            int64_t tx = cx + g_ibuf[ipos] % span - rl; ipos++;
            int64_t ty = cy + g_ibuf[ipos] % span - rl; ipos++;
            if (tx < 1) tx = 1; else if (tx > g_width) tx = g_width;
            if (ty < 1) ty = 1; else if (ty > g_height) ty = g_height;
            target_g = (tx - 1) * g_height + (ty - 1);
            if (target_g == cur_g) continue;
        } else {
            target_g = -1;
            for (int t = 0; t < 8; t++) {
                int64_t tg = gsites[g_ibuf[ipos] % nsit]; ipos++;
                int64_t dx = g_sx[tg] - cx; if (dx < 0) dx = -dx;
                int64_t dy = g_sy[tg] - cy; if (dy < 0) dy = -dy;
                if ((double)(dx + dy) > range2) continue;
                if (tg != cur_g) { target_g = tg; break; }
            }
            if (target_g < 0) continue;
        }
        g_istate[ATT]++;
        int64_t occ = g_occ[target_g];  /* -1 = empty site */
        int64_t nx = g_sx[target_g], ny = g_sy[target_g];

        g_bx[block] = nx; g_by[block] = ny;
        if (occ >= 0) { g_bx[occ] = cx; g_by[occ] = cy; }

        int64_t delta = 0, nupd = 0;
        if (occ < 0) {
            for (int64_t j = g_nb_ptr[block]; j < g_nb_ptr[block + 1]; j++) {
                int64_t nid = g_nb[j];
                int64_t *o = g_upd_bb + nupd * 8;
                bbox_after_move(nid, cx, cy, nx, ny, o);
                int64_t cost = g_wq[nid] * ((o[1] - o[0]) + (o[3] - o[2]));
                delta += cost - g_ncost[nid];
                g_upd_nid[nupd] = nid; g_upd_cost[nupd] = cost; nupd++;
            }
        } else {
            /* Swap: mark the occupant's nets, then shared nets (both
             * endpoints moved) rescan once and are skipped in the
             * occupant pass -- same membership tests as the Python
             * kernel's set intersection. */
            int64_t mvid = g_istate[MVID] + 2;
            g_istate[MVID] = mvid;
            for (int64_t j = g_nb_ptr[occ]; j < g_nb_ptr[occ + 1]; j++)
                g_net_mark[g_nb[j]] = mvid;
            for (int64_t j = g_nb_ptr[block]; j < g_nb_ptr[block + 1]; j++) {
                int64_t nid = g_nb[j];
                int64_t *o = g_upd_bb + nupd * 8;
                if (g_net_mark[nid] >= mvid) {
                    g_net_mark[nid] = mvid + 1;  /* shared: skip below */
                    bbox_rescan(nid, o);
                } else {
                    bbox_after_move(nid, cx, cy, nx, ny, o);
                }
                int64_t cost = g_wq[nid] * ((o[1] - o[0]) + (o[3] - o[2]));
                delta += cost - g_ncost[nid];
                g_upd_nid[nupd] = nid; g_upd_cost[nupd] = cost; nupd++;
            }
            for (int64_t j = g_nb_ptr[occ]; j < g_nb_ptr[occ + 1]; j++) {
                int64_t nid = g_nb[j];
                if (g_net_mark[nid] == mvid + 1) continue;  /* shared */
                int64_t *o = g_upd_bb + nupd * 8;
                bbox_after_move(nid, nx, ny, cx, cy, o);
                int64_t cost = g_wq[nid] * ((o[1] - o[0]) + (o[3] - o[2]));
                delta += cost - g_ncost[nid];
                g_upd_nid[nupd] = nid; g_upd_cost[nupd] = cost; nupd++;
            }
        }

        int64_t ntsc = 0;
        if (g_has_timing) {
            for (int64_t j = g_cb_ptr[block]; j < g_cb_ptr[block + 1]; j++) {
                int64_t ci = g_cb[j];
                int64_t s = g_tsrc[ci], d2 = g_tdst[ci];
                int64_t dx = g_bx[s] - g_bx[d2]; if (dx < 0) dx = -dx;
                int64_t dy = g_by[s] - g_by[d2]; if (dy < 0) dy = -dy;
                int64_t nd = dx + dy;
                if (nd == 0) nd = 1;
                delta += g_cwq[ci] * (nd - g_cdist[ci]);
                g_tsc_ci[ntsc] = ci; g_tsc_nd[ntsc] = nd; ntsc++;
            }
            if (occ >= 0) {
                for (int64_t j = g_cb_ptr[occ]; j < g_cb_ptr[occ + 1]; j++) {
                    int64_t ci = g_cb[j];
                    int64_t s = g_tsrc[ci], d2 = g_tdst[ci];
                    if (s == block || d2 == block)
                        continue;  /* shared connection, re-priced above */
                    int64_t dx = g_bx[s] - g_bx[d2]; if (dx < 0) dx = -dx;
                    int64_t dy = g_by[s] - g_by[d2]; if (dy < 0) dy = -dy;
                    int64_t nd = dx + dy;
                    if (nd == 0) nd = 1;
                    delta += g_cwq[ci] * (nd - g_cdist[ci]);
                    g_tsc_ci[ntsc] = ci; g_tsc_nd[ntsc] = nd; ntsc++;
                }
            }
        }

        int accept;
        if (delta <= 0) {
            accept = 1;
        } else {
            if (upos >= g_rbuf) {
                g_istate[IPOS] = ipos; g_istate[UPOS] = upos;
                g_cb_fn(1);
                if (g_istate[ABORT]) return;
                upos = 0;
            }
            accept = g_ubuf[upos] < exp(-(double)delta / tmax);
            upos++;
        }
        if (accept) {
            for (int64_t k = 0; k < nupd; k++) {
                int64_t nid = g_upd_nid[k];
                int64_t *o = g_upd_bb + k * 8;
                int64_t *dst = g_bb + nid * 8;
                for (int q = 0; q < 8; q++) dst[q] = o[q];
                g_istate[TOTAL] += g_upd_cost[k] - g_ncost[nid];
                g_ncost[nid] = g_upd_cost[k];
            }
            g_occ[target_g] = block;
            g_occ[cur_g] = occ;
            g_bgsite[block] = target_g;
            if (occ >= 0) g_bgsite[occ] = cur_g;
            g_istate[ACC]++;
            g_istate[ACC_TEMP]++;
            if (g_has_timing) {
                for (int64_t k = 0; k < ntsc; k++) {
                    int64_t ci = g_tsc_ci[k];
                    g_istate[TIMING] += g_cwq[ci] * (g_tsc_nd[k] - g_cdist[ci]);
                    g_cdist[ci] = g_tsc_nd[k];
                }
                g_istate[ACC_RETIME]++;
                if (g_istate[ACC_RETIME] >= g_retime_every) {
                    g_istate[ACC_RETIME] = 0;
                    g_istate[IPOS] = ipos; g_istate[UPOS] = upos;
                    g_cb_fn(2);  /* refresh g_cwq in place */
                    if (g_istate[ABORT]) return;
                    int64_t tc = 0;
                    for (int64_t ci = 0; ci < g_nconn; ci++)
                        tc += g_cwq[ci] * g_cdist[ci];
                    g_istate[TIMING] = tc;
                }
            }
        } else {
            g_bx[block] = cx; g_by[block] = cy;
            if (occ >= 0) { g_bx[occ] = nx; g_by[occ] = ny; }
        }
    }
    g_istate[IPOS] = ipos; g_istate[UPOS] = upos;
}
"""

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_p = ctypes.c_void_p
_CB = ctypes.CFUNCTYPE(None, ctypes.c_int64)


class NativeAnnealer:
    """ctypes binding over one :func:`~repro.par.placement.place` call's flat state."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        self._bind = lib.repro_anneal_bind
        self._bind.argtypes = (
            [_p] * 4 + [_p] * 2 + [_p] * 4 + [_p] * 3
            + [_p, _i64, _p, _i64] * 2
            + [_i64] * 4
            + [_p, _p, _i64]
            + [_i64, _p, _p, _p, _p, _p, _p, _i64, _i64]
            + [_p]
            + [_p] * 3 + [_p] * 2
            + [_CB, _p]
        )
        self._bind.restype = None
        self._run = lib.repro_anneal_run
        self._run.argtypes = [_i64, _f64, _f64, _i64, _i64]
        self._run.restype = None
        self._refs: tuple = ()

    def bind(self, arrays: dict, scalars: dict, callback) -> None:
        """Bind the flat placement state; ``callback`` handles kinds 0/1/2."""
        a = arrays
        self._cb = _CB(callback)  # keep the thunk alive for the whole anneal
        self._refs = tuple(a.values())
        self._bind(
            a["block_gsite"].ctypes.data, a["block_x"].ctypes.data,
            a["block_y"].ctypes.data, a["occupant"].ctypes.data,
            a["site_x"].ctypes.data, a["site_y"].ctypes.data,
            a["pins_ptr"].ctypes.data, a["pins"].ctypes.data,
            a["nb_ptr"].ctypes.data, a["nb"].ctypes.data,
            a["bb"].ctypes.data, a["net_cost"].ctypes.data,
            a["wq"].ctypes.data,
            a["gblocks0"].ctypes.data, scalars["nblk0"],
            a["gsites0"].ctypes.data, scalars["nsit0"],
            a["gblocks1"].ctypes.data, scalars["nblk1"],
            a["gsites1"].ctypes.data, scalars["nsit1"],
            scalars["num_groups"], scalars["logic_group"],
            scalars["width"], scalars["height"],
            a["ibuf"].ctypes.data, a["ubuf"].ctypes.data, scalars["rbuf"],
            scalars["has_timing"], a["t_src"].ctypes.data,
            a["t_dst"].ctypes.data, a["cb_ptr"].ctypes.data,
            a["cb_conns"].ctypes.data, a["c_dist"].ctypes.data,
            a["cwq"].ctypes.data, scalars["nconn"], scalars["retime_every"],
            a["net_mark"].ctypes.data,
            a["upd_nid"].ctypes.data, a["upd_bb"].ctypes.data,
            a["upd_cost"].ctypes.data,
            a["tsc_ci"].ctypes.data, a["tsc_nd"].ctypes.data,
            self._cb, a["istate"].ctypes.data,
        )

    def run_temperature(
        self, moves_per_temp: int, tmax: float, range2: float, rl: int, span: int
    ) -> None:
        """Run ``moves_per_temp`` move attempts at temperature ``tmax``.

        ``range2`` bounds the Manhattan distance of an IO target, ``rl`` and
        ``span`` give the logic-site window (``span == 2 * rl + 1``).  The
        counters and running costs come back through the bound ``istate``.
        """
        self._run(moves_per_temp, tmax, range2, rl, span)


_instances: Dict[int, NativeAnnealer] = {}


def annealer_kernel() -> Optional[NativeAnnealer]:
    """The compiled move loop, or ``None`` when the backend is off."""
    lib = load_kernel("annealer", SOURCE)
    if lib is None:
        return None
    inst = _instances.get(id(lib))
    if inst is None:
        inst = NativeAnnealer(lib)
        _instances[id(lib)] = inst
    return inst
