"""Span tracing from outside the program, and the per-layer metrics built on it.

`Tracer.install` replaces the public functions at the module attributes
through which one radionet layer calls another (for example
`radionet.broadcast.round_step`, the name `run_broadcast` looks up on every
round) with wrappers that record a span: name, start, end, parent span and
pass id, plus a few counters read off the arguments and the result. Spans
stay in memory until the run ends. `uninstall` puts the original functions
back, so untraced passes run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import radionet.broadcast
import radionet.cli
import radionet.instance
import radionet.model
import radionet.util
import radionet.verifier

#: Per-layer metrics of a traced run, in report order: (name, unit).
LAYER_METRICS = (
    ("cli.gen_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.simulate_s", "s"),
    ("cli.report_s", "s"),
    ("cli.analyze_s", "s"),
    ("verifier.exact_s", "s"),
    ("verifier.exact_calls", "count"),
    ("verifier.exact_subsets_per_s", "1/s"),
    ("verifier.exact_repeat_ratio", "ratio"),
    ("verifier.search_s", "s"),
    ("verifier.search_calls", "count"),
    ("verifier.monte_carlo_self_s", "s"),
    ("model.round_step_s", "s"),
    ("model.round_step_calls", "count"),
    ("model.round_step_useful_ratio", "ratio"),
    ("model.radius_s", "s"),
    ("model.load_s", "s"),
    ("model.save_s", "s"),
    ("instance.sample_instance_s", "s"),
    ("instance.sample_instance_calls", "count"),
    ("analytic.certify_chain_s", "s"),
    ("analytic.certify_chain_calls", "count"),
    ("analytic.expected_receivers_s", "s"),
    ("broadcast.run_broadcast_self_s.round_robin", "s"),
    ("broadcast.run_broadcast_self_s.greedy_schedule", "s"),
    ("broadcast.run_broadcast_self_s.random_p", "s"),
    ("broadcast.rounds", "count"),
    ("broadcast.rounds_per_s", "1/s"),
    ("broadcast.bound_ratio", "ratio"),
    ("broadcast.useful_reception_ratio", "ratio"),
    ("util.atomic_write_s", "s"),
    ("trace.overhead_s", "s"),
)


def _exact_info(args, kwargs, result):
    net = args[0]
    # Identity of the enumerated net, for the repeat ratio: the sender count
    # and every receiver's neighbour list.
    key = hash((net.sender_count, tuple(r.neighbors for r in net.receivers)))
    return {"subsets": result.subsets_examined, "net_key": key}


def _round_step_info(args, kwargs, result):
    net = args[0]
    if isinstance(net, radionet.model.Radius2Net):
        return {"scanned": net.total_nodes, "useful": net.total_nodes - net.void_count}
    return {"scanned": 0, "useful": 0}


def _broadcast_info(args, kwargs, result):
    net, cfg = args[0], args[1]
    return {
        "policy": cfg.policy,
        "rounds": result.rounds_used,
        "bound": result.accounting_lower_bound,
        "demand": cfg.k * net.core.receiver_count,
        "receptions": result.total_receptions,
    }


#: (module, attribute, span name or name function, counter function).
BOUNDARIES = (
    (radionet.cli, "dispatch", lambda args, kwargs: f"cli.{args[0][0]}", None),
    (radionet.cli, "load_net", "model.load", None),
    (radionet.cli, "save_net", "model.save", None),
    (radionet.cli, "atomic_write_text", "util.atomic_write", None),
    (radionet.util, "atomic_write_text", "util.atomic_write", None),
    (radionet.cli, "sample_instance", "instance.sample_instance", None),
    (radionet.verifier, "sample_instance", "instance.sample_instance", None),
    (radionet.instance, "sample_instance", "instance.sample_instance", None),
    (radionet.cli, "max_receptions_exact", "verifier.exact", _exact_info),
    (radionet.broadcast, "max_receptions_exact", "verifier.exact", _exact_info),
    (radionet.cli, "max_receptions_search", "verifier.search", None),
    (radionet.broadcast, "max_receptions_search", "verifier.search", None),
    (radionet.verifier, "monte_carlo_expectation", "verifier.monte_carlo", None),
    (radionet.cli, "run_broadcast", "broadcast.run_broadcast", _broadcast_info),
    (radionet.broadcast, "round_step", "model.round_step", _round_step_info),
    (radionet.verifier, "round_step", "model.round_step", _round_step_info),
    (radionet.model, "radius", "model.radius", None),
    (radionet.cli, "certify_chain", "analytic.certify_chain", None),
    (radionet.cli, "expected_receivers", "analytic.expected_receivers", None),
)


@dataclass
class Span:
    name: str
    parent: Optional[int]
    pass_id: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans at the layer boundaries while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, Callable]] = []

    def install(self, pass_id: int) -> None:
        self.pass_id = pass_id
        for module, attr, name, info in BOUNDARIES:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                name(args, kwargs) if callable(name) else name,
                tracer._stack[-1] if tracer._stack else None,
                tracer.pass_id,
            )
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds over all traced passes."""
        table: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += own
        return dict(sorted(table.items()))

    def records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "parent": s.parent,
                "pass": s.pass_id,
                "start": s.start,
                "end": s.end,
                **({"info": s.info} if s.info else {}),
            }
            for s in self.spans
        ]

    def layer_metrics(self, untraced_walls: list[float], traced_walls: list[float]) -> dict:
        """Every LAYER_METRICS value: per traced pass, then the median over passes."""
        own = self.self_times()
        passes = sorted({span.pass_id for span in self.spans})
        per_pass = [self._pass_metrics(pass_id, own) for pass_id in passes] or [{}]
        values = {
            name: statistics.median(m.get(name, 0.0) for m in per_pass)
            for name, _ in LAYER_METRICS
        }
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
            untraced_walls
        )
        return values

    def _pass_metrics(self, pass_id: int, own: list[float]) -> dict:
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        seen_nets: set[int] = set()
        repeats = subsets = scanned = useful = 0
        rounds = bound = demand = receptions = 0
        for span, span_self in zip(self.spans, own):
            if span.pass_id != pass_id:
                continue
            name = span.name
            total[name] = total.get(name, 0.0) + span.duration
            calls[name] = calls.get(name, 0) + 1
            if name == "broadcast.run_broadcast":
                name = f"{name}.{span.info['policy']}"
            self_s[name] = self_s.get(name, 0.0) + span_self
            info = span.info
            if span.name == "verifier.exact":
                subsets += info["subsets"]
                repeats += info["net_key"] in seen_nets
                seen_nets.add(info["net_key"])
            elif span.name == "model.round_step":
                scanned += info["scanned"]
                useful += info["useful"]
            elif span.name == "broadcast.run_broadcast":
                rounds += info["rounds"]
                if info["bound"] != float("inf"):
                    bound += info["bound"]
                demand += info["demand"]
                receptions += info["receptions"]

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {f"{name}_s": seconds for name, seconds in total.items()}
        metrics.update(
            {
                "verifier.exact_calls": calls.get("verifier.exact", 0),
                "verifier.exact_subsets_per_s": ratio(subsets, total.get("verifier.exact", 0.0)),
                "verifier.exact_repeat_ratio": ratio(repeats, calls.get("verifier.exact", 0)),
                "verifier.search_calls": calls.get("verifier.search", 0),
                "verifier.monte_carlo_self_s": self_s.get("verifier.monte_carlo", 0.0),
                "model.round_step_calls": calls.get("model.round_step", 0),
                "model.round_step_useful_ratio": ratio(useful, scanned),
                "instance.sample_instance_calls": calls.get("instance.sample_instance", 0),
                "analytic.certify_chain_calls": calls.get("analytic.certify_chain", 0),
                "broadcast.rounds": rounds,
                "broadcast.rounds_per_s": ratio(rounds, total.get("broadcast.run_broadcast", 0.0)),
                "broadcast.bound_ratio": ratio(rounds, bound),
                "broadcast.useful_reception_ratio": ratio(demand, receptions),
            }
        )
        for policy in radionet.broadcast.POLICIES:
            key = f"broadcast.run_broadcast_self_s.{policy}"
            metrics[key] = self_s.get(f"broadcast.run_broadcast.{policy}", 0.0)
        return metrics
