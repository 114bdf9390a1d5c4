"""Native (compiled-C) PathFinder net loop of the ``astar`` router.

:func:`repro.par.routing.route` keeps PathFinder's outer loop in Python:
the per-iteration cost refresh, the history and ``pres_fac`` schedule,
the routing-failure predictor, telemetry and the per-net deadline poll.
Everything inside one net runs here, in one C call per net
(:meth:`NativeAstar.route_net`):

* the rip-up scan of a re-routed net (which connections touch an
  overused node, closed over the attach/target dependency chain);
* the farthest-first sink order and the net's terminal bounding box, with
  the escalation to the whole device when a search fails inside it;
* the directed search of each connection and its backtrace;
* the route tree, occupancy and the congestion-cost updates (``bump``);
* the overuse state, kept as a per-node mask plus a count, since a node
  is overused exactly when ``occupancy > capacity``;
* the net's connection records, kept per net in C and exported as the
  flat :class:`~repro.par.forest.RouteForest` arrays in one call
  (:meth:`NativeAstar.export_forest`).

:meth:`NativeAstar.next_congested` finds the next net that touches an
overused node, so an incremental iteration makes one call per re-routed
net, not one per net.

Bit-identity contract
---------------------

The C kernel performs the *same IEEE-754 operations in the same order* as
the Python twin (compiled with ``-ffp-contract=off -fno-fast-math`` so the
compiler cannot fuse or re-associate them), and its heap pops replicate
``heapq``'s order: every ``(f, g, node)`` key in flight is distinct (a
re-push requires strictly improving ``g`` past the 1e-12 stale band), so
the keys form a strict total order and any correct binary heap pops them
in exactly the same sequence.  Seeds replicate the lazy sorted seed
stream and the inline chase rule.  Both sides read the graph's own arrays
(:class:`~repro.fpga.routing_graph.RRGraph`): a search expands node ``n``
over ``edge_dst[edge_ptr[n]:search_end[n]]``, and sink completion scans a
wire's pin edges past ``search_end[w]`` for input pins whose one
out-edge is the target sink and takes the cheapest, the lowest pin id on
equal cost -- the same scan and rule in C and in the Python twin.  The
rip-up scan, the tree order the searches seed from and the fragment
layout copy the Python twin's.
Routes, wirelengths, and iteration counts are therefore bit-identical to
the Python kernel -- verified across the bench seeds by
``tests/test_native.py`` and gated in CI by ``benchmarks/check_quality.py``
-- so ``ROUTE_ALGO_VERSION`` and every cached artifact stay valid.

Observability: the bound ``int64`` *stats* array receives the number of
expanded nodes in ``stats[0]`` (one count per adjacency scan, the
definition the Python twin counts) and the live overused-node count in
``stats[1]``.  Both are integer-only side effects that cannot perturb
the FP trajectory.

Not thread-safe: search scratch, the bound arrays and the per-net records
live in static storage inside the shared object, mirroring the
single-threaded Python kernel.  Process-pool drivers get one copy per
worker, which is the supported parallelism model.
"""

from __future__ import annotations

import ctypes
from typing import Dict, Optional

import numpy as np

from ..fpga.routing_graph import RRNodeType
from .build import load_kernel

__all__ = ["astar_kernel", "NativeAstar", "SOURCE"]

SOURCE = r"""
/* Native PathFinder net loop of repro.par.routing.
 *
 * Bit-identity rules: every float expression below copies the Python
 * twin's shape (left-to-right association, same literals, same 1e-12
 * epsilons); compiled with -ffp-contract=off -fno-fast-math so no FMA
 * fusion or re-association can change a single ULP.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* ---- growable scratch, persistent across calls (single-threaded) ---- */

static double  *heap_f = NULL;
static double  *heap_g = NULL;
static int64_t *heap_n = NULL;
static int64_t  heap_cap = 0;
static int64_t  heap_len = 0;

typedef struct { double h; int64_t n; } seed_t;
static seed_t  *seeds = NULL;
static int64_t  seed_cap = 0;

/* Per-node planes.  The stamps only ever grow (g_gen per search, g_stamp
 * per net call), so a plane never needs clearing: a stale entry is always
 * older than the current stamp. */
static int64_t *s_visited = NULL;  /* search generation that reached node */
static double  *s_csf = NULL;      /* cost so far */
static int64_t *s_prev = NULL;     /* backtrace predecessor */
static int64_t *s_in_tree = NULL;  /* net stamp: node is in the route tree */
static int64_t *s_rip = NULL;      /* net stamp: node owned by a ripped conn */
static int32_t *s_pos = NULL;      /* local fragment position of a tree node */
static int64_t *s_tree = NULL;     /* the tree in seed order */
static int64_t *s_path = NULL;     /* one backtrace, sink first */
static int32_t *o_node = NULL, *o_parent = NULL, *o_depth = NULL;
static int64_t  s_nodes_cap = 0;
static int64_t *s_targ = NULL;     /* targets of one net call */
static uint8_t *s_keep = NULL;     /* per connection: kept by the rip-up */
static int32_t *o_csink = NULL, *o_cspos = NULL, *o_cend = NULL;
static int64_t  s_sinks_cap = 0;
static int64_t  g_gen = 0, g_stamp = 0;

/* ---- the graph ---- */

/* Node n's search edges are edge_ptr[n]..search_end[n]; its pin edges
 * (into IPINs and SINKs) follow them up to edge_ptr[n + 1]. */
static const int64_t *g_edge_ptr;
static const int32_t *g_edge_dst;
static const int64_t *g_search_end;
static const int16_t *g_xs, *g_ys;
static const int8_t  *g_type;
static int64_t        g_ipin_t, g_sink_t;
static double         g_fac, g_pfb;
static int64_t        g_margin;

/* ---- routing state of one route call ---- */

static int32_t       *g_occ;
static const int32_t *g_cap;
static uint8_t       *g_over;   /* occ > cap */
static int64_t       *g_stats;  /* [0] nodes expanded, [1] overused nodes */
static double        *g_cost;   /* congestion cost, kept live by bump() */
static const double  *g_bh;     /* base + history cost */
static double         g_pres;

/* ---- nets and their fragments ---- */

static int64_t        g_n_nets = 0;
static const int64_t *g_net_source, *g_sink_ptr, *g_sinks;

typedef struct {
    int32_t *node, *parent, *depth;   /* positions, attach-to-sink order */
    int32_t *csink, *cspos, *cend;    /* connections */
    int64_t  npos, pos_cap, nconn;
} frag_t;
static frag_t *g_frags = NULL;

static int grow(void **p, int64_t n, size_t size, int zero, int64_t old)
{
    void *q = realloc(*p, (size_t)n * size);
    if (!q) return -1;
    if (zero) memset((char *)q + (size_t)old * size, 0, (size_t)(n - old) * size);
    *p = q;
    return 0;
}

static void free_frags(void)
{
    for (int64_t k = 0; k < g_n_nets && g_frags; k++) {
        frag_t *f = &g_frags[k];
        free(f->node); free(f->parent); free(f->depth);
        free(f->csink); free(f->cspos); free(f->cend);
    }
    free(g_frags);
    g_frags = NULL;
    g_n_nets = 0;
}

void repro_astar_graph(const int64_t *edge_ptr, const int32_t *edge_dst,
                       const int64_t *search_end,
                       const int16_t *xs, const int16_t *ys,
                       const int8_t *ntype, int64_t ipin_t, int64_t sink_t,
                       double fac, double pin_floor, int64_t margin)
{
    g_edge_ptr = edge_ptr; g_edge_dst = edge_dst; g_search_end = search_end;
    g_xs = xs; g_ys = ys; g_type = ntype;
    g_ipin_t = ipin_t; g_sink_t = sink_t;
    g_fac = fac; g_pfb = pin_floor; g_margin = margin;
}

/* Bind one route call's state and nets; sizes the scratch planes.
 * Returns 0, or -1 when memory runs out. */
int64_t repro_astar_state(int64_t num_nodes, int32_t *occ, const int32_t *cap,
                          uint8_t *over, int64_t *stats, int64_t n_nets,
                          const int64_t *net_source, const int64_t *sink_ptr,
                          const int64_t *sinks)
{
    free_frags();
    g_occ = occ; g_cap = cap; g_over = over; g_stats = stats;
    g_net_source = net_source; g_sink_ptr = sink_ptr; g_sinks = sinks;
    if (num_nodes + 1 > s_nodes_cap) {
        int64_t n = num_nodes + 1, old = s_nodes_cap;
        if (grow((void **)&s_visited, n, sizeof(int64_t), 1, old) ||
            grow((void **)&s_in_tree, n, sizeof(int64_t), 1, old) ||
            grow((void **)&s_rip, n, sizeof(int64_t), 1, old) ||
            grow((void **)&s_csf, n, sizeof(double), 0, old) ||
            grow((void **)&s_prev, n, sizeof(int64_t), 0, old) ||
            grow((void **)&s_pos, n, sizeof(int32_t), 0, old) ||
            grow((void **)&s_tree, n, sizeof(int64_t), 0, old) ||
            grow((void **)&s_path, n, sizeof(int64_t), 0, old) ||
            grow((void **)&o_node, n, sizeof(int32_t), 0, old) ||
            grow((void **)&o_parent, n, sizeof(int32_t), 0, old) ||
            grow((void **)&o_depth, n, sizeof(int32_t), 0, old))
            return -1;
        s_nodes_cap = n;
    }
    int64_t max_sinks = 1;
    for (int64_t k = 0; k < n_nets; k++) {
        int64_t s = sink_ptr[k + 1] - sink_ptr[k];
        if (s > max_sinks) max_sinks = s;
    }
    if (max_sinks > s_sinks_cap) {
        if (grow((void **)&s_targ, max_sinks, sizeof(int64_t), 0, 0) ||
            grow((void **)&s_keep, max_sinks, sizeof(uint8_t), 0, 0) ||
            grow((void **)&o_csink, max_sinks, sizeof(int32_t), 0, 0) ||
            grow((void **)&o_cspos, max_sinks, sizeof(int32_t), 0, 0) ||
            grow((void **)&o_cend, max_sinks, sizeof(int32_t), 0, 0))
            return -1;
        s_sinks_cap = max_sinks;
    }
    g_frags = (frag_t *)calloc(n_nets ? n_nets : 1, sizeof(frag_t));
    if (!g_frags) return -1;
    g_n_nets = n_nets;
    return 0;
}

/* Per-iteration costs.  `cost` is written by bump(). */
void repro_astar_costs(double *cost, const double *bh, double pres_fac)
{
    g_cost = cost; g_bh = bh; g_pres = pres_fac;
}

/* Free the per-net records (the bound arrays belong to the caller). */
void repro_astar_release(void)
{
    free_frags();
}

/* ---- binary heap keyed on (f, g, n); all live keys are distinct ---- */

static inline int lt3(double f1, double g1, int64_t n1,
                      double f2, double g2, int64_t n2)
{
    if (f1 != f2) return f1 < f2;
    if (g1 != g2) return g1 < g2;
    return n1 < n2;
}

static int heap_push(double f, double g, int64_t n)
{
    if (heap_len == heap_cap) {
        int64_t c = heap_cap ? heap_cap * 2 : 4096;
        if (grow((void **)&heap_f, c, sizeof(double), 0, 0) ||
            grow((void **)&heap_g, c, sizeof(double), 0, 0) ||
            grow((void **)&heap_n, c, sizeof(int64_t), 0, 0))
            return -1;
        heap_cap = c;
    }
    int64_t i = heap_len++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (lt3(f, g, n, heap_f[p], heap_g[p], heap_n[p])) {
            heap_f[i] = heap_f[p]; heap_g[i] = heap_g[p]; heap_n[i] = heap_n[p];
            i = p;
        } else break;
    }
    heap_f[i] = f; heap_g[i] = g; heap_n[i] = n;
    return 0;
}

static void heap_pop(double *f, double *g, int64_t *n)
{
    *f = heap_f[0]; *g = heap_g[0]; *n = heap_n[0];
    heap_len--;
    if (heap_len <= 0) return;
    double lf = heap_f[heap_len], lg = heap_g[heap_len];
    int64_t ln = heap_n[heap_len];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= heap_len) break;
        int64_t r = c + 1;
        if (r < heap_len &&
            lt3(heap_f[r], heap_g[r], heap_n[r],
                heap_f[c], heap_g[c], heap_n[c]))
            c = r;
        if (lt3(heap_f[c], heap_g[c], heap_n[c], lf, lg, ln)) {
            heap_f[i] = heap_f[c]; heap_g[i] = heap_g[c]; heap_n[i] = heap_n[c];
            i = c;
        } else break;
    }
    heap_f[i] = lf; heap_g[i] = lg; heap_n[i] = ln;
}

static int seed_cmp(const void *a, const void *b)
{
    const seed_t *x = (const seed_t *)a, *y = (const seed_t *)b;
    if (x->h != y->h) return x->h < y->h ? -1 : 1;
    return x->n < y->n ? -1 : (x->n > y->n ? 1 : 0);
}

/* ---- congestion bookkeeping (the Python twin's bump) ---- */

static void set_over(int64_t n, uint8_t v)
{
    if (g_over[n] != v) {
        g_over[n] = v;
        g_stats[1] += v ? 1 : -1;
    }
}

static void bump(int64_t n, int32_t d)
{
    g_occ[n] += d;
    int64_t over = (int64_t)g_occ[n] + 1 - g_cap[n];
    if (over > 0) {
        g_cost[n] = g_bh[n] * (1.0 + g_pres * (double)over);
        if (over > 1) set_over(n, 1);
        else if (d < 0) set_over(n, 0);
    } else {
        g_cost[n] = g_bh[n];
        if (d < 0) set_over(n, 0);
    }
}

/* ---- sink completion through the graph's pin edges ---- */

static int64_t s_gen, s_target;
static double  s_tcost;
static double  s_best;

/* Complete target <- ipin <- `w` through the cheapest of w's pin edges
 * whose input pin's one out-edge is the target (the lowest pin id on
 * equal cost), when that beats the best completion so far. */
static void complete(int64_t w, double g_w)
{
    int64_t ip = -1;
    double c = 0.0;
    int64_t e_end = g_edge_ptr[w + 1];
    for (int64_t e = g_search_end[w]; e < e_end; e++) {
        int64_t q = g_edge_dst[e];
        int64_t qe = g_edge_ptr[q];
        if (qe == g_edge_ptr[q + 1] || g_edge_dst[qe] != s_target) continue;
        double cq = g_cost[q];
        if (ip < 0 || cq < c || (cq == c && q < ip)) { ip = q; c = cq; }
    }
    if (ip < 0) return;
    double total = g_w + c + s_tcost;
    if (total < s_best - 1e-12) {
        s_best = total;
        s_visited[s_target] = s_gen;
        s_csf[s_target] = total;
        s_prev[s_target] = ip;
        s_visited[ip] = s_gen;
        s_csf[ip] = g_w + c;
        s_prev[ip] = w;
    }
}

/* One directed search from the route tree (s_tree[0:tree_len]) to
 * `target`.  Returns 1 when a path was found (backtrace through s_prev
 * ends at a tree node), 0 when the target is unreachable within the
 * bounds, -1 when memory runs out. */
static int search(int64_t tree_len, int64_t target,
                  int64_t xlo, int64_t xhi, int64_t ylo, int64_t yhi)
{
    const int16_t *xs = g_xs, *ys = g_ys;
    const double *cost = g_cost;
    int64_t *visited = s_visited, *prev = s_prev;
    double *csf = s_csf;
    int64_t gen = ++g_gen;

    double pf = g_pfb;
    double fac = g_fac;
    int64_t tx = xs[target], ty = ys[target];
    double t_cost = cost[target];

    s_gen = gen; s_target = target; s_tcost = t_cost;
    s_best = HUGE_VAL;
    heap_len = 0;

    if (tree_len > seed_cap) {
        int64_t c = tree_len * 2;
        if (grow((void **)&seeds, c, sizeof(seed_t), 0, 0)) return -1;
        seed_cap = c;
    }
    int64_t nseeds = 0;
    for (int64_t i = 0; i < tree_len; i++) {
        int64_t n = s_tree[i];
        int64_t tt = g_type[n];
        if (tt == g_ipin_t || tt == g_sink_t) continue;
        int64_t x = xs[n], y = ys[n];
        if (x < xlo || x > xhi || y < ylo || y > yhi) continue;
        int64_t dx = x - tx; if (dx < 0) dx = -dx;
        int64_t dy = y - ty; if (dy < 0) dy = -dy;
        if (dx + dy <= 1) complete(n, 0.0);
        seeds[nseeds].h = (double)(dx + dy) * fac;
        seeds[nseeds].n = n;
        nseeds++;
    }
    qsort(seeds, nseeds, sizeof(seed_t), seed_cmp);

    int64_t si = 0;
    for (;;) {
        double f, g;
        int64_t n;
        if (si < nseeds && (heap_len == 0 || seeds[si].h <= heap_f[0])) {
            f = seeds[si].h; n = seeds[si].n; si++;
            g = 0.0;
            visited[n] = gen; csf[n] = 0.0; prev[n] = -1;
        } else if (heap_len) {
            heap_pop(&f, &g, &n);
            if (g > csf[n] + 1e-12) continue;  /* stale heap entry */
        } else break;
        for (;;) {
            if (f >= s_best) return 1;  /* the recorded completion is final */
            g_stats[0]++;  /* node expanded: its adjacency is scanned */
            double chase_f = HUGE_VAL, chase_g = 0.0;
            int64_t chase_m = -1;
            int64_t e_end = g_search_end[n];
            for (int64_t e = g_edge_ptr[n]; e < e_end; e++) {
                int64_t m = g_edge_dst[e];
                double new_cost = g + cost[m];
                if (visited[m] == gen && new_cost >= csf[m] - 1e-12)
                    continue;  /* already reached at least as cheaply */
                int64_t x = xs[m];
                if (x < xlo || x > xhi) continue;
                int64_t y = ys[m];
                if (y < ylo || y > yhi) continue;
                int64_t dx = x - tx; if (dx < 0) dx = -dx;
                int64_t dy = y - ty; if (dy < 0) dy = -dy;
                int64_t d = dx + dy;
                double f_m;
                if (d <= 1) {
                    visited[m] = gen; csf[m] = new_cost; prev[m] = n;
                    complete(m, new_cost);
                    f_m = new_cost + (double)d * fac;
                    if (new_cost + (double)d + pf >= s_best || f_m >= s_best)
                        continue;
                } else {
                    f_m = new_cost + (double)d * fac;
                    if (f_m >= s_best || new_cost + (double)d + pf >= s_best)
                        continue;  /* cannot beat the known completion */
                    visited[m] = gen; csf[m] = new_cost; prev[m] = n;
                }
                if (f_m < chase_f) {
                    if (chase_m >= 0 && heap_push(chase_f, chase_g, chase_m))
                        return -1;
                    chase_f = f_m; chase_g = new_cost; chase_m = m;
                } else if (heap_push(f_m, new_cost, m)) {
                    return -1;
                }
            }
            if (chase_m < 0) break;
            if ((heap_len && heap_f[0] < chase_f) ||
                (si < nseeds && seeds[si].h < chase_f)) {
                if (heap_push(chase_f, chase_g, chase_m)) return -1;
                break;
            }
            f = chase_f; g = chase_g; n = chase_m;
        }
    }
    return s_best < HUGE_VAL;
}

/* ---- one net: rip-up, searches, tree and fragment ---- */

static int64_t o_npos, o_nconn;

/* Append a connection whose `len` new nodes come from `nodes`, in
 * attach-to-sink order (stride -1 reads a sink-first buffer backwards),
 * to the output fragment -- _append_conn's layout. */
static void frag_append(int64_t target, int64_t attach,
                        const int64_t *sink_first, const int32_t *ats,
                        int64_t len)
{
    o_csink[o_nconn] = (int32_t)target;
    if (len == 0) {  /* duplicate sink: the target is already in the tree */
        o_cspos[o_nconn] = s_pos[target];
        o_cend[o_nconn] = (int32_t)o_npos;
        o_nconn++;
        return;
    }
    int32_t ap = s_pos[attach];
    int64_t base = o_npos;
    int32_t d0 = ap >= 0 ? o_depth[ap] + 1 : 1;
    for (int64_t j = 0; j < len; j++) {
        int64_t node = sink_first ? sink_first[len - 1 - j] : ats[j];
        o_node[base + j] = (int32_t)node;
        o_parent[base + j] = j ? (int32_t)(base + j - 1) : ap;
        o_depth[base + j] = d0 + (int32_t)j;
        s_pos[node] = (int32_t)(base + j);
    }
    o_npos = base + len;
    o_cspos[o_nconn] = (int32_t)(o_npos - 1);
    o_cend[o_nconn] = (int32_t)o_npos;
    o_nconn++;
}

static int store_frag(frag_t *f)
{
    if (o_npos > f->pos_cap) {
        int64_t c = o_npos;
        if (grow((void **)&f->node, c, sizeof(int32_t), 0, 0) ||
            grow((void **)&f->parent, c, sizeof(int32_t), 0, 0) ||
            grow((void **)&f->depth, c, sizeof(int32_t), 0, 0))
            return -1;
        f->pos_cap = c;
    }
    if (!f->csink) {
        int64_t c = o_nconn ? o_nconn : 1;
        if (grow((void **)&f->csink, c, sizeof(int32_t), 0, 0) ||
            grow((void **)&f->cspos, c, sizeof(int32_t), 0, 0) ||
            grow((void **)&f->cend, c, sizeof(int32_t), 0, 0))
            return -1;
    }
    memcpy(f->node, o_node, (size_t)o_npos * sizeof(int32_t));
    memcpy(f->parent, o_parent, (size_t)o_npos * sizeof(int32_t));
    memcpy(f->depth, o_depth, (size_t)o_npos * sizeof(int32_t));
    memcpy(f->csink, o_csink, (size_t)o_nconn * sizeof(int32_t));
    memcpy(f->cspos, o_cspos, (size_t)o_nconn * sizeof(int32_t));
    memcpy(f->cend, o_cend, (size_t)o_nconn * sizeof(int32_t));
    f->npos = o_npos;
    f->nconn = o_nconn;
    return 0;
}

/* Route net `k`: all its sinks farthest-first (`reroute` == 0), or only
 * the connections the rip-up scan selects.  Returns the net's position
 * count, -1 when a sink is unreachable even on the whole device, -3 when
 * memory runs out. */
int64_t repro_astar_route_net(int64_t k, int64_t reroute)
{
    int64_t source = g_net_source[k];
    int64_t s0 = g_sink_ptr[k], s1 = g_sink_ptr[k + 1];
    int64_t nsinks = s1 - s0;
    int64_t stamp = ++g_stamp;
    frag_t *f = &g_frags[k];

    int64_t sx = g_xs[source], sy = g_ys[source];
    int64_t xlo = sx, xhi = sx, ylo = sy, yhi = sy;
    for (int64_t i = s0; i < s1; i++) {
        int64_t x = g_xs[g_sinks[i]], y = g_ys[g_sinks[i]];
        if (x < xlo) xlo = x;
        if (x > xhi) xhi = x;
        if (y < ylo) ylo = y;
        if (y > yhi) yhi = y;
    }
    xlo -= g_margin; xhi += g_margin; ylo -= g_margin; yhi += g_margin;

    int64_t tree_len = 0;
    s_tree[tree_len++] = source;
    s_in_tree[source] = stamp;
    s_pos[source] = -1;
    o_npos = 0;
    o_nconn = 0;
    int64_t ntarg = 0;

    if (!reroute) {
        /* farthest-first, stable on equal distance (Python's sorted) */
        for (int64_t i = 0; i < nsinks; i++) {
            int64_t t = g_sinks[s0 + i];
            int64_t dt = llabs(g_xs[t] - sx) + llabs(g_ys[t] - sy);
            int64_t j = ntarg;
            while (j > 0) {
                int64_t u = s_targ[j - 1];
                if (llabs(g_xs[u] - sx) + llabs(g_ys[u] - sy) >= dt) break;
                s_targ[j] = u;
                j--;
            }
            s_targ[j] = t;
            ntarg++;
        }
    } else {
        /* Rip-up scan in route order: a connection goes when one of its
         * nodes is overused or it attaches to / targets a node owned by a
         * ripped earlier connection. */
        const int32_t *node = f->node, *parent = f->parent;
        int64_t start = 0;
        for (int64_t c = 0; c < f->nconn; c++) {
            int64_t t = f->csink[c], e = f->cend[c];
            int64_t attach = t;
            if (e > start) attach = parent[start] < 0 ? source : node[parent[start]];
            int rip = s_rip[attach] == stamp || s_rip[t] == stamp;
            if (!rip) {
                if (e > start) {
                    for (int64_t i = start; i < e && !rip; i++) rip = g_over[node[i]];
                } else {
                    rip = g_over[t];
                }
            }
            s_keep[c] = !rip;
            if (rip) {
                s_targ[ntarg++] = t;
                if (e > start) {
                    for (int64_t i = start; i < e; i++) s_rip[node[i]] = stamp;
                } else {
                    s_rip[t] = stamp;
                }
            }
            start = e;
        }
        start = 0;
        for (int64_t c = 0; c < f->nconn; c++) {
            int64_t e = f->cend[c];
            if (!s_keep[c]) {
                if (e > start) {
                    for (int64_t i = e - 1; i >= start; i--) bump(node[i], -1);
                } else {
                    bump(f->csink[c], -1);
                }
            }
            start = e;
        }
        /* The kept connections rebuild the tree (paths sink first) and
         * the fragment, in their stored order. */
        start = 0;
        for (int64_t c = 0; c < f->nconn; c++) {
            int64_t t = f->csink[c], e = f->cend[c];
            if (s_keep[c]) {
                int64_t attach = t;
                if (e > start) attach = parent[start] < 0 ? source : node[parent[start]];
                for (int64_t i = e - 1; i >= start; i--) {
                    s_tree[tree_len++] = node[i];
                    s_in_tree[node[i]] = stamp;
                }
                frag_append(t, attach, NULL, node + start, e - start);
            }
            start = e;
        }
    }

    for (int64_t i = 0; i < ntarg; i++) {
        int64_t t = s_targ[i];
        if (s_in_tree[t] == stamp) {
            bump(t, 1);
            frag_append(t, t, NULL, NULL, 0);
            continue;
        }
        /* A too-tight box can starve a congested net of detour room:
         * escalate from the terminal box to the whole device. */
        int found = search(tree_len, t, xlo, xhi, ylo, yhi);
        if (found == 0)
            found = search(tree_len, t, -(1LL << 30), 1LL << 30,
                           -(1LL << 30), 1LL << 30);
        if (found < 0) return -3;
        if (found == 0) return -1;
        int64_t np = 0, n = t;
        while (s_in_tree[n] != stamp) {
            s_path[np++] = n;
            n = s_prev[n];
        }
        for (int64_t j = 0; j < np; j++) {
            int64_t p = s_path[j];
            s_tree[tree_len++] = p;
            s_in_tree[p] = stamp;
            bump(p, 1);
        }
        frag_append(t, n, s_path, NULL, np);
    }
    if (store_frag(f)) return -3;
    return o_npos;
}

/* The first net at index >= start whose tree holds an overused node, or
 * -1.  (A net's SOURCE is never occupied, so its positions suffice.) */
int64_t repro_astar_next_congested(int64_t start)
{
    for (int64_t k = start; k < g_n_nets; k++) {
        const frag_t *f = &g_frags[k];
        for (int64_t i = 0; i < f->npos; i++)
            if (g_over[f->node[i]]) return k;
    }
    return -1;
}

/* Total positions and connections over all nets, into out[0], out[1]. */
void repro_astar_forest_size(int64_t *out)
{
    int64_t p = 0, c = 0;
    for (int64_t k = 0; k < g_n_nets; k++) {
        p += g_frags[k].npos;
        c += g_frags[k].nconn;
    }
    out[0] = p;
    out[1] = c;
}

/* Concatenate the nets' fragments, in `order`, into the flat forest
 * arrays (build_route_forest's assembly: local positions are offset by
 * the net's first global position, -1 stays -1). */
void repro_astar_export(const int64_t *order, int32_t *node, int32_t *parent,
                        int32_t *depth, int32_t *net_node_ptr,
                        int32_t *net_ptr, int32_t *conn_sink,
                        int32_t *conn_sink_pos, int32_t *conn_ptr)
{
    int64_t p = 0, c = 0;
    net_node_ptr[0] = 0;
    net_ptr[0] = 0;
    conn_ptr[0] = 0;
    for (int64_t i = 0; i < g_n_nets; i++) {
        const frag_t *f = &g_frags[order[i]];
        for (int64_t j = 0; j < f->npos; j++) {
            node[p + j] = f->node[j];
            parent[p + j] = f->parent[j] < 0 ? -1 : (int32_t)(f->parent[j] + p);
            depth[p + j] = f->depth[j];
        }
        for (int64_t j = 0; j < f->nconn; j++) {
            conn_sink[c + j] = f->csink[j];
            conn_sink_pos[c + j] = f->cspos[j] < 0 ? -1 : (int32_t)(f->cspos[j] + p);
            conn_ptr[c + j + 1] = (int32_t)(f->cend[j] + p);
        }
        p += f->npos;
        c += f->nconn;
        net_node_ptr[i + 1] = (int32_t)p;
        net_ptr[i + 1] = (int32_t)c;
    }
}
"""

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_p = ctypes.c_void_p
#: Dtypes of the arrays :meth:`NativeAstar.bind_graph` binds, in order.
_GRAPH_DTYPES = tuple(
    np.dtype(t) for t in (np.int64, np.int32, np.int64, np.int16, np.int16, np.int8)
)


def _ptr(arr: np.ndarray) -> int:
    return arr.ctypes.data


class NativeAstar:
    """ctypes binding of the compiled PathFinder net loop.

    One route call binds the graph (:meth:`bind_graph`), its state and
    nets (:meth:`bind_state`) and, per PathFinder iteration, its costs
    (:meth:`set_costs`); then it calls :attr:`route_net` once per routed
    net and reads the result back with :meth:`export_forest`.  The C side
    holds raw pointers into every bound array, so this object keeps them
    alive until the next bind.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        def fn(name, argtypes, restype=None):
            f = getattr(lib, name)
            f.argtypes = argtypes
            f.restype = restype
            return f

        self._graph = fn("repro_astar_graph", [_p] * 6 + [_i64] * 2 + [_f64, _f64, _i64])
        self._state = fn("repro_astar_state", [_i64, _p, _p, _p, _p, _i64, _p, _p, _p], _i64)
        self._costs = fn("repro_astar_costs", [_p, _p, _f64])
        self._release = fn("repro_astar_release", [])
        #: ``route_net(k, reroute)``: see :meth:`bind_state` for the codes.
        self.route_net = fn("repro_astar_route_net", [_i64, _i64], _i64)
        #: ``next_congested(start)``: the first net index ``>= start`` whose
        #: tree holds an overused node, or -1.
        self.next_congested = fn("repro_astar_next_congested", [_i64], _i64)
        self._forest_size = fn("repro_astar_forest_size", [_p])
        self._export = fn("repro_astar_export", [_p] * 9)
        self._graph_refs: tuple = ()
        self._state_refs: tuple = ()
        self._cost_refs: tuple = ()

    def bind_graph(self, rr, fac: float, pin_floor: float, margin: int) -> None:
        """Bind the graph's own arrays (CSR edges, ``search_end``, int16
        coordinates and node types), the lookahead weight ``fac``, the
        admissible pin floor and the bounding-box ``margin``.

        Raises ``TypeError`` when an array is not C-contiguous in the
        dtype of the graph's contract, which the kernel reads it as.
        """
        arrays = (
            rr.edge_ptr,
            rr.edge_dst,
            rr.search_end,
            rr.node_x,
            rr.node_y,
            rr.node_type,
        )
        for arr, dtype in zip(arrays, _GRAPH_DTYPES):
            if arr.dtype != dtype or not arr.flags.c_contiguous:
                raise TypeError(f"RR graph array of dtype {arr.dtype}: the kernel reads {dtype}")
        self._graph_refs = arrays
        self._graph(
            *(_ptr(a) for a in arrays),
            RRNodeType.IPIN,
            RRNodeType.SINK,
            fac,
            pin_floor,
            margin,
        )

    def bind_state(
        self,
        occupancy: np.ndarray,
        capacity: np.ndarray,
        over: np.ndarray,
        stats: np.ndarray,
        net_source: np.ndarray,
        sink_ptr: np.ndarray,
        sinks: np.ndarray,
    ) -> None:
        """Bind one route call's state and nets, dropping earlier net records.

        ``occupancy`` (int32) and ``over`` (uint8, ``occupancy >
        capacity``) are updated in place by every net call, ``stats``
        (int64[2]) accumulates nodes expanded and holds the overused-node
        count.  Net ``k`` has SOURCE ``net_source[k]`` and the sinks
        ``sinks[sink_ptr[k]:sink_ptr[k + 1]]`` in pin order.

        :attr:`route_net` returns the net's position count, -1 when a sink
        is unreachable even on the whole device and -3 when memory runs
        out.
        """
        refs = (occupancy, capacity, over, stats, net_source, sink_ptr, sinks)
        self._state_refs = refs
        rc = self._state(
            len(occupancy),
            *(_ptr(a) for a in refs[:4]),
            len(net_source),
            *(_ptr(a) for a in refs[4:]),
        )
        if rc < 0:
            raise MemoryError("native astar: scratch allocation failed")

    def set_costs(self, cost: np.ndarray, base_hist: np.ndarray, pres_fac: float) -> None:
        """Bind one PathFinder iteration's congestion costs.

        ``cost`` is the live congestion cost vector, which every occupancy
        change rewrites from ``base_hist`` and ``pres_fac``.
        """
        self._cost_refs = (cost, base_hist)
        self._costs(_ptr(cost), _ptr(base_hist), pres_fac)

    def export_forest(self, order: np.ndarray) -> Dict[str, np.ndarray]:
        """The nets' records in ``order`` as int32 route-forest arrays.

        Returns ``node``, ``parent``, ``depth``, ``net_node_ptr``,
        ``net_ptr``, ``conn_sink``, ``conn_sink_pos`` and ``conn_ptr``,
        laid out as :func:`repro.par.forest.build_route_forest` lays out
        the same nets' fragments.
        """
        size = np.zeros(2, dtype=np.int64)
        self._forest_size(_ptr(size))
        p, c, n = int(size[0]), int(size[1]), len(order)
        out = {
            "node": np.empty(p, dtype=np.int32),
            "parent": np.empty(p, dtype=np.int32),
            "depth": np.empty(p, dtype=np.int32),
            "net_node_ptr": np.empty(n + 1, dtype=np.int32),
            "net_ptr": np.empty(n + 1, dtype=np.int32),
            "conn_sink": np.empty(c, dtype=np.int32),
            "conn_sink_pos": np.empty(c, dtype=np.int32),
            "conn_ptr": np.empty(c + 1, dtype=np.int32),
        }
        self._export(_ptr(order), *(_ptr(a) for a in out.values()))
        return out

    def release(self) -> None:
        """Free the per-net records and drop the bound arrays."""
        self._release()
        self._graph_refs = ()
        self._state_refs = ()
        self._cost_refs = ()


_instances: Dict[int, NativeAstar] = {}


def astar_kernel() -> Optional[NativeAstar]:
    """The compiled net loop, or ``None`` when the backend is off."""
    lib = load_kernel("astar", SOURCE)
    if lib is None:
        return None
    inst = _instances.get(id(lib))
    if inst is None:
        inst = NativeAstar(lib)
        _instances[id(lib)] = inst
    return inst
