"""Span tracing of masksim's public functions, for the benchmark's traced run.

``Tracer.install`` wraps every function in ``TARGETS`` where its callers
look it up: a module-level function is replaced in every ``masksim``
module that binds it (``runner`` imports ``sample_mask_bits``,
``decode_bridge_record``, ``multilaterate`` and others by name, ``cli``
imports ``run_hil_replay`` and ``load_scenario``), and a method is
replaced on its class.  Each call while ``recording`` is true appends one
span (name, parent span, start, end) to in-memory columns; nothing is
written until ``save``.

A span's self time is its duration minus the durations of its direct
child spans.  The benchmark runs one thread, so child spans never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# module -> public names traced in it ("Class.method" for methods)
TARGETS = {
    "epidemic": ["step_movement", "contact_pairs", "infection_trials",
                 "health_transitions", "sample_mask_bits",
                 "keyed_uniform_pairs", "keyed_uniform_agents", "advance",
                 "run"],
    "ledger": ["Tangle.append", "MamChannel.publish", "ChannelReader.poll",
               "Tangle.transactions_at", "Tangle.verify", "Tangle.stats",
               "Tangle.save", "Tangle.load"],
    "crypto": ["digest", "encrypt", "decrypt"],
    "bus": ["MessageBus.publish", "Gateway.pump", "encode_bridge_record",
            "decode_bridge_record"],
    "sensing": ["encode_status", "decode_status",
                "MaskDetector.push_and_detect"],
    "positioning": ["simulate_exchange", "multilaterate", "time_of_flight"],
    "controller": ["ComplianceController.step",
                   "ComplianceController.probabilities",
                   "encode_cost_vector", "decode_cost_vector"],
    "escrow": ["EscrowBank.deposit", "EscrowBank.settle_step", "to_micro",
               "replay_records"],
    "runner": ["read_replay_csv", "detector_bits", "run_hil_replay"],
    "scenario": ["load_scenario"],
}

SPAN_NAMES = [f"{mod}.{name}" for mod, names in TARGETS.items()
              for name in names]


# -- counting hooks: (tracer, result, args) after each recorded call ------

def _count_pairs(tracer, result, args):
    tracer.counters["epidemic.pairs"] += len(result[0])


def _count_infections(tracer, result, args):
    tracer.counters["epidemic.new_infections"] += result


def _count_publish(tracer, result, args):
    kind = tracer.channel_kinds.get(args[0].base_address, "other")
    tracer.counters[f"ledger.tx.{kind}"] += 1


def _count_polled(tracer, result, args):
    tracer.counters["ledger.polled_messages"] += len(result)


def _count_loaded(tracer, result, args):
    tracer.counters["ledger.loaded_tx"] += len(result)


def _count_emissions(tracer, result, args):
    tracer.counters["sensing.emissions"] += result is not None


def _count_converged(tracer, result, args):
    tracer.counters["positioning.converged"] += bool(result.converged)


def _count_gaps(tracer, result, args):
    ctrl, records = args[0], args[2]
    tracer.counters["controller.gap_events"] += len(ctrl.agents) - len(records)


HOOKS = {
    "epidemic.contact_pairs": _count_pairs,
    "epidemic.infection_trials": _count_infections,
    "ledger.MamChannel.publish": _count_publish,
    "ledger.ChannelReader.poll": _count_polled,
    "ledger.Tangle.load": _count_loaded,
    "sensing.MaskDetector.push_and_detect": _count_emissions,
    "positioning.multilaterate": _count_converged,
    "controller.ComplianceController.step": _count_gaps,
}


class Tracer:
    """Wraps the traced functions and keeps their spans in memory."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        # channel base address -> "status" | "escrow" | "controller"
        self.channel_kinds: dict[bytes, str] = {}
        self.recording = False
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raises if a target no longer exists."""
        for name_id, full in enumerate(self.names):
            mod_name, _, attr = full.partition(".")
            module = sys.modules[f"masksim.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name_id))
                else:
                    wrapped = self._wrap(raw, name_id)
                self._replace(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name_id)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("masksim")
                        and getattr(mod, attr, None) is original):
                    self._replace(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, wrapped) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, name_id: int):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        hook = HOOKS.get(self.names[name_id])
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, result, args)
            return result

        return traced

    # -- reading the spans ----------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        # copies, so the columns can keep growing afterwards
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        start = np.frombuffer(self.span_start, dtype=np.float64).copy()
        end = np.frombuffer(self.span_end, dtype=np.float64).copy()
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested],
                            minlength=len(duration))
        return {"name": name, "parent": parent, "start": start, "end": end,
                "self": duration - child}

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, total seconds)."""
        s = self.spans()
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        self_s = np.bincount(s["name"], weights=s["self"], minlength=k)
        total_s = np.bincount(s["name"], weights=s["end"] - s["start"],
                              minlength=k)
        return {n: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        s = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **s)


# =============================================================================
# Per-layer metrics of a traced run
# =============================================================================

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def step_seconds(tracer: Tracer) -> np.ndarray:
    """Host time of each closed-loop step: from one step's first controller
    call (``probabilities``) to the next, the last step ending where the
    run's final ``Tangle.verify`` starts."""
    s = tracer.spans()
    name_id = tracer.names.index

    def starts(name):
        return s["start"][s["name"] == name_id(name)]

    probs = starts("controller.ComplianceController.probabilities")
    verifies = starts("ledger.Tangle.verify")
    out = []
    for i in np.nonzero(s["name"] == name_id("runner.run_hil_replay"))[0]:
        lo, hi = s["start"][i], s["end"][i]
        p = probs[(probs >= lo) & (probs <= hi)]
        v = verifies[(verifies >= lo) & (verifies <= hi)]
        if len(p) and len(v):
            out.append(np.diff(np.append(p, v[0])))
    return np.concatenate(out) if out else np.zeros(0)


def layer_metrics(tracer: Tracer, rounds: int, agent_steps: int,
                  snapshot_bytes: int, facts: dict) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit), per traced round.

    ``facts`` carries what the spans cannot show: the run's ``summary``
    (summary.json), the number of escrow ``transfers``, and for a workload
    that reads a ledger instead of writing one, ``tx_by_kind`` and ``tips``.
    A ratio whose base is zero on a workload reads 0.
    """
    totals = tracer.totals()
    c = tracer.counters
    m: dict[str, tuple] = {}
    for name, (calls, self_s, _) in totals.items():
        m[f"{name}.calls"] = (calls / rounds, "count")
        m[f"{name}.self_s"] = (self_s / rounds, "s")

    def calls(name):
        return totals[name][0] / rounds

    cp_calls, _, cp_total = totals["epidemic.contact_pairs"]
    m["epidemic.contact_pairs.ms_per_call"] = (_ratio(cp_total * 1e3, cp_calls),
                                               "ms")
    m["epidemic.pairs_per_step"] = (_ratio(c["epidemic.pairs"], cp_calls),
                                    "count")
    m["epidemic.new_infections"] = (c["epidemic.new_infections"] / rounds,
                                    "count")

    ap_calls, _, ap_total = totals["ledger.Tangle.append"]
    m["ledger.append.us_per_tx"] = (_ratio(ap_total * 1e6, ap_calls), "us")
    tx = facts.get("tx_by_kind") or {
        k: c[f"ledger.tx.{k}"] / rounds for k in ("status", "escrow",
                                                  "controller")}
    for kind, n in tx.items():
        m[f"ledger.tx.{kind}"] = (n, "count")
    m["ledger.tx_per_agent_step"] = (_ratio(sum(tx.values()), agent_steps),
                                     "tx/agent-step")
    m["ledger.poll.messages_per_lookup"] = (
        _ratio(c["ledger.polled_messages"] / rounds,
               calls("ledger.Tangle.transactions_at")), "msg/lookup")
    summary = facts.get("summary") or {}
    ledger_stats = summary.get("ledger", {})
    m["ledger.snapshot_bytes_per_tx"] = (
        _ratio(snapshot_bytes, ledger_stats.get("transactions", 0)), "B/tx")
    m["ledger.tips_final"] = (facts.get("tips", ledger_stats.get("tips", 0)),
                              "count")

    handled = calls("ledger.Tangle.append") + c["ledger.loaded_tx"] / rounds
    m["crypto.digests_per_tx"] = (_ratio(calls("crypto.digest"), handled),
                                  "digest/tx")

    bridge = summary.get("bridge", {})
    m["bus.bridged_per_published"] = (
        _ratio(bridge.get("bridged", 0), calls("bus.MessageBus.publish")),
        "ratio")
    for key in ("duplicates", "dead_letters", "dropped"):
        m[f"bus.{key}"] = (bridge.get(key, 0), "count")

    m["sensing.emissions_per_sample"] = (
        _ratio(c["sensing.emissions"] / rounds,
               calls("sensing.MaskDetector.push_and_detect")), "ratio")
    m["positioning.converged_per_fix"] = (
        _ratio(c["positioning.converged"] / rounds,
               calls("positioning.multilaterate")), "ratio")
    m["controller.gap_events"] = (c["controller.gap_events"] / rounds, "count")
    m["escrow.transfers_per_agent_step"] = (
        _ratio(facts.get("transfers", 0), agent_steps), "tx/agent-step")
    m["escrow.exclusions"] = (summary.get("exclusions", 0), "count")

    steps_ms = step_seconds(tracer) * 1e3
    for q in (50, 90):
        m[f"runner.step_ms_p{q}"] = (
            float(np.percentile(steps_ms, q)) if len(steps_ms) else 0.0, "ms")
    return m
