"""Per-layer metrics and the self-time table of a traced run.

Units follow the metric names: ``*_s`` is seconds spent in that layer per
workload operation (all calls summed, divided by the operations run),
``*_ms`` is the mean milliseconds of one call, ``*_ratio`` and
``*_rate`` are fractions, and the remaining names are counts per call or
per operation as the README table says.  A layer the workload never calls
reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Tuple

from spans import attribute

__all__ = ["layer_metrics", "self_time_table", "GLUE"]

#: Spans of driver code between the layers (the root window and the flow
#: drivers).  Their self time is what the wrapped layer calls do not explain.
GLUE = {"table1", "service_mixed", "respecialize", "par.flow.place_and_route"}


def _durations(spans: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = defaultdict(list)
    for s in spans:
        out[s["name"]].append(s["end"] - s["start"])
    return out


def _count(spans, name: str, field: str) -> float:
    return sum(s.get("counts", {}).get(field, 0.0) for s in spans if s["name"] == name)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(result: Dict[str, Any], untraced: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``result`` is the traced child's output, ``untraced`` the output of the
    untraced run of the same seed (for ``trace_overhead_ratio``).
    """
    spans = result["spans"]
    ops = max(1, result["attempted"])
    dur = _durations(spans)
    by_id = {s["id"]: s for s in spans}
    children: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            children[s["parent"]].append(s)
    self_s = attribute(spans, result["root"])

    def per_op_s(name: str) -> float:
        return sum(dur.get(name, [])) / ops

    def mean_ms(name: str) -> float:
        return _mean(dur.get(name, [])) * 1000.0

    def minus_children_ms(name: str, child: str = "") -> float:
        """Mean ms of ``name`` calls minus their (named or all) children."""
        values = []
        for s in spans:
            if s["name"] != name:
                continue
            kids = [k for k in children[s["id"]] if not child or k["name"] == child]
            values.append(s["end"] - s["start"] - sum(k["end"] - k["start"] for k in kids))
        return _mean(values) * 1000.0

    # Queue wait: from the end of the accepting submit to the start of the
    # parent-side execution of the same job.
    accepted = {
        s["request"]: s["end"]
        for s in spans
        if s["name"] == "service.submit" and s.get("counts", {}).get("accepted")
    }
    waits = [
        s["start"] - accepted[s["request"]]
        for s in spans
        if s["name"] == "service.exec" and s["request"] in accepted
    ]
    counters = result["counters"]
    quality = result["quality"]
    switches = len(dur.get("reconfig.scheduler.switch", []))
    unattributed = sum(self_s.get(name, 0.0) for name in GLUE)

    m = {
        "synth.synthesize_s": per_op_s("synth.synthesize"),
        "techmap.map_s": per_op_s("techmap.map"),
        "par.netlist.pack_s": per_op_s("par.netlist.pack"),
        "fpga.device.build_s": per_op_s("fpga.device.build"),
        "par.placement.place_s": per_op_s("par.placement.place"),
        "par.placement.accept_ratio": _ratio(
            _count(spans, "par.placement.place", "moves_accepted"),
            _count(spans, "par.placement.place", "moves_attempted"),
        ),
        "par.routing.route_s": per_op_s("par.routing.route"),
        "par.routing.iterations": _ratio(
            _count(spans, "par.routing.route", "iterations"), len(dur.get("par.routing.route", []))
        ),
        "par.routing.nodes_expanded": _ratio(
            _count(spans, "par.routing.route", "nodes_expanded"),
            len(dur.get("par.routing.route", [])),
        ),
        "par.metrics.min_cw_s": per_op_s("par.metrics.min_cw"),
        "par.metrics.min_cw_probes": _ratio(
            _count(spans, "par.metrics.min_cw", "probes"), len(dur.get("par.metrics.min_cw", []))
        ),
        "par.metrics.min_cw_routable_ratio": _ratio(
            _count(spans, "par.metrics.min_cw", "routable"),
            _count(spans, "par.metrics.min_cw", "probes"),
        ),
        "timing.analyze_s": per_op_s("timing.analyze"),
        "table1.unattributed_s": unattributed / ops if "table1" in dur else 0.0,
        "service.submit_ms": mean_ms("service.submit"),
        "service.queue_wait_ms": _mean(waits) * 1000.0,
        "service.coalesced_ratio": _ratio(counters.get("coalesced", 0), counters.get("submitted", 0)),
        "service.journal.record_ms": mean_ms("service.journal.record"),
        "service.journal.records": _ratio(counters.get("journal_records", 0), counters.get("submitted", 0)),
        "service.exec_ms": mean_ms("service.exec"),
        "service.retries": float(counters.get("retries", 0)),
        "service.worker_restarts": float(counters.get("worker_restarts", 0)),
        "service.exec.front_end_ms": _ratio(
            sum(dur.get("service.exec.front_end", [])), len(dur.get("service.exec.job", []))
        ) * 1000.0,
        "service.exec.place_ms": _ratio(
            sum(dur.get("par.placement.place", [])), len(dur.get("service.exec.job", []))
        ) * 1000.0,
        "service.exec.route_ms": _ratio(
            sum(dur.get("par.routing.route", [])), len(dur.get("service.exec.job", []))
        ) * 1000.0,
        "service.exec.digest_ms": mean_ms("service.exec.digest"),
        "service.exec.unattributed_ms": minus_children_ms("service.exec.job"),
        "techmap.specialize_words_ms": mean_ms("techmap.specialize_words"),
        "core.scg.render_ms": minus_children_ms("core.scg.specialize", "techmap.specialize_words"),
        "reconfig.context.add_ms": mean_ms("reconfig.context.add"),
        "reconfig.scheduler.switch_ms": mean_ms("reconfig.scheduler.switch"),
        "reconfig.scheduler.hit_rate": _ratio(
            _count(spans, "reconfig.scheduler.switch", "resident"), switches
        ),
        "reconfig.scheduler.frames_written": _ratio(
            _count(spans, "reconfig.scheduler.switch", "frames_written"), switches
        ),
        "reconfig.scheduler.modeled_switch_ms": _ratio(
            _count(spans, "reconfig.scheduler.switch", "modeled_ms"), switches
        ),
        "unattributed_ratio": _ratio(unattributed, result["window_s"]),
        "trace_overhead_ratio": _ratio(
            result["window_s"] / ops, untraced["window_s"] / max(1, untraced["attempted"])
        ),
    }
    for name, value in quality.items():
        m[f"table1.{name}"] = value
    return m


def self_time_table(result: Dict[str, Any]) -> Tuple[List[Tuple[str, int, float, float]], float]:
    """Rows ``(span name, calls, total s, self s)`` sorted by self time, and
    the traced wall time they add up to."""
    spans = result["spans"]
    self_s = attribute(spans, result["root"])
    dur = _durations(spans)
    rows = [
        (name, len(dur.get(name, [])), sum(dur.get(name, [])), self_s.get(name, 0.0))
        for name in set(dur) | set(self_s)
    ]
    rows.sort(key=lambda r: -r[3])
    root = next(s for s in spans if s["id"] == result["root"])
    return rows, root["end"] - root["start"]
