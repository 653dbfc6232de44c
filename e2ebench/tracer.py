"""Per-layer self-time tracing from outside the program.

:class:`Tracer` times calls into each layer by wrapping them, and
removes every wrapper again when the ``with tracer.installed():`` block
exits.  Nothing under ``src/`` is edited.  Three kinds of call are timed:

- **direct entry points** (:data:`ENTRY_POINTS`): methods replaced on
  their class for the block, plus ``build_scenario`` and ``Scenario.run``;
- **registered callbacks**: whatever is passed to the public
  registration methods (:data:`REGISTRATIONS`) is wrapped on the way in
  and charged to the layer of the module that defined it;
- **scheduled events**: the scenario's simulator is swapped for a proxy
  whose ``schedule``/``schedule_at`` wrap each callback the same way, so
  event time is charged to the module that scheduled work, and the
  kernel's own ``run`` loop keeps only its dispatch cost.

Each timed call is a span.  A span's *self time* is its duration minus
the durations of the spans it directly contains, so nested spans are
never counted twice, and the self times of all spans plus the time no
span covers (:attr:`Tracer.unattributed_s`) add up to the traced wall
time exactly.
"""

from __future__ import annotations

import importlib
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer of a callback by the module that defined it, longest prefix
#: first.  ``DEFENSE`` resolves to ``defenses.<plugin>`` of the scenario
#: being run, since both leash plugins share one implementation module.
DEFENSE = "defenses"
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.trace", "trace.emit"),
    ("repro.sim", "sim.dispatch"),
    ("repro.net.mac", "net.mac_send"),
    ("repro.net.channel", "net.deliver"),
    ("repro.net", "net.deliver"),
    ("repro.core.monitor", "core.observe"),
    ("repro.core.isolation", "core.isolation"),
    ("repro.core", "core.agent"),
    ("repro.routing", "routing"),
    ("repro.attacks", "attacks"),
    ("repro.traffic", "traffic"),
    ("repro.defenses", DEFENSE),
    ("repro.baselines", DEFENSE),
    ("repro.metrics", "metrics.subscriber"),
    ("repro.experiments", "harness.job"),
    ("repro.obs", "harness.job"),
)
UNATTRIBUTED = "unattributed"

#: (module, class, method, layer): calls timed directly.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.trace", "TraceLog", "emit", "trace.emit"),
    ("repro.net.channel", "Channel", "transmit", "net.transmit"),
    ("repro.net.mac", "CsmaMac", "send", "net.mac_send"),
    ("repro.net.node", "Node", "deliver", "net.deliver"),
    ("repro.core.monitor", "LocalMonitor", "observe", "core.observe"),
    ("repro.core.monitor", "LocalMonitor", "observe_own", "core.observe"),
    ("repro.core.isolation", "IsolationManager", "handle_local_detection", "core.isolation"),
    ("repro.routing.ondemand", "OnDemandRouting", "send_data", "routing"),
    ("repro.metrics.collector", "MetricsCollector", "report", "metrics.report"),
    ("repro.experiments.cache", "ResultCache", "get", "harness.job"),
    ("repro.experiments.cache", "ResultCache", "put", "harness.cache_put"),
    ("repro.experiments.campaign", "CampaignJournal", "begin", "harness.journal"),
    ("repro.experiments.campaign", "CampaignJournal", "record", "harness.journal"),
    ("repro.experiments.campaign", "CampaignJournal", "close", "harness.journal"),
    ("repro.experiments.campaign", "CampaignRunner", "run", "harness.job"),
    ("repro.experiments.campaign", "InlineBackend", "run_batch", "harness.job"),
)

#: (module, class, method, callback argument index): public methods
#: whose callback argument is wrapped on registration
#: (``TraceLog.subscribe`` too, which also records the subscribed kind).
REGISTRATIONS: Tuple[Tuple[str, str, str, int], ...] = (
    ("repro.net.node", "Node", "add_observer", 0),
    ("repro.net.node", "Node", "add_filter", 0),
    ("repro.net.node", "Node", "add_listener", 0),
    ("repro.net.node", "Node", "add_send_filter", 0),
    ("repro.net.channel", "Channel", "attach_loss_handler", 1),
    ("repro.net.channel", "Channel", "add_tx_observer", 0),
    ("repro.net.channel", "Channel", "add_reception_observer", 0),
    ("repro.net.channel", "Channel", "set_frame_stamper", 1),
    # Timers are the sim layer's; the work they fire is their owner's.
    ("repro.sim.timers", "PeriodicTimer", "__init__", 1),
    ("repro.sim.timers", "Timeout", "__init__", 1),
)

Key = Tuple[str, str]


def module_layer(module: Optional[str]) -> str:
    """The layer a callback defined in ``module`` is charged to."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return UNATTRIBUTED


def _callable_identity(fn: Callable[..., Any]) -> Tuple[Any, Optional[str], str]:
    """(cache key, defining module, name) of a callback."""
    func = getattr(fn, "__func__", fn)
    code = getattr(func, "__code__", None)
    if code is not None:
        return code, getattr(func, "__module__", None), func.__name__
    kind = type(fn)
    return kind, kind.__module__, kind.__name__


class _SimProxy:
    """Stands in for the C (or Python) simulator so scheduled callbacks
    can be wrapped; the kernel types cannot be subclassed or patched."""

    def __init__(self, sim: Any, tracer: "Tracer") -> None:
        self._sim = sim
        self._tracer = tracer

    @property
    def now(self) -> float:
        return self._sim.now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return self._sim.schedule(delay, self._tracer.wrap_callback(callback), *args, **kwargs)

    def schedule_at(self, at: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return self._sim.schedule_at(at, self._tracer.wrap_callback(callback), *args, **kwargs)

    def run(self, *args: Any, **kwargs: Any) -> Any:
        return self._tracer.call(("sim.dispatch", "run"), self._sim.run, *args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sim, name)


class Tracer:
    """Span stack, per-(layer, function) self times, and the wrappers.

    ``clock`` is injectable so tests can drive exact durations.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[Key, float] = defaultdict(float)
        self.calls: Dict[Key, int] = defaultdict(int)
        # One frame per open span: the summed duration of its children.
        self._stack: List[List[float]] = [[0.0]]
        self._started: Optional[float] = None
        self.wall_s = 0.0
        self.defense = "none"
        self.counters: Dict[str, float] = defaultdict(float)
        self._layers: Dict[Any, Tuple[str, str]] = {}
        self._subscribed: "weakref.WeakKeyDictionary[Any, set]" = weakref.WeakKeyDictionary()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    def wrap(self, key: Key, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as a span charged to ``key``."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                stack[-1][0] += elapsed
                self_s[key] += elapsed - frame[0]
                calls[key] += 1

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def call(self, key: Key, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` once as a span charged to ``key``."""
        return self.wrap(key, fn)(*args, **kwargs)

    def key_for(self, fn: Callable[..., Any]) -> Key:
        """(layer, function name) a callback is charged to."""
        cache_key, module, name = _callable_identity(fn)
        key = self._layers.get(cache_key)
        if key is None:
            key = self._layers[cache_key] = (module_layer(module), name)
        if key[0] == DEFENSE:
            return (f"{DEFENSE}.{self.defense}", key[1])
        return key

    def wrap_callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        return self.wrap(self.key_for(fn), fn)

    def start(self) -> None:
        """Open the root span: everything until :meth:`stop` is traced wall."""
        self._stack[:] = [[0.0]]
        self._started = self.clock()

    def stop(self) -> None:
        if self._started is None:
            raise RuntimeError("stop() without start()")
        self.wall_s = self.clock() - self._started
        self._started = None

    @property
    def unattributed_s(self) -> float:
        """Traced wall time no span covers, plus callbacks defined
        outside every mapped module."""
        root_children = self._stack[0][0]
        stray = sum(v for (layer, _), v in self.self_s.items() if layer == UNATTRIBUTED)
        return self.wall_s - root_children + stray

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (function names summed)."""
        totals: Dict[str, float] = defaultdict(float)
        for (layer, _), seconds in self.self_s.items():
            if layer != UNATTRIBUTED:
                totals[layer] += seconds
        return dict(totals)

    # -- installation ----------------------------------------------------
    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _registration(self, original: Callable[..., Any], index: int) -> Callable[..., Any]:
        tracer = self

        def register(obj: Any, *args: Any, **kwargs: Any) -> Any:
            if index < len(args):
                args = args[:index] + (tracer.wrap_callback(args[index]),) + args[index + 1:]
            return original(obj, *args, **kwargs)

        return register

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper for the block; restore on exit."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, owner_name, attr, layer in ENTRY_POINTS:
                owner = getattr(importlib.import_module(module_name), owner_name)
                self._patch(owner, attr, self.wrap((layer, attr), owner.__dict__[attr]))
            for module_name, owner_name, attr, index in REGISTRATIONS:
                owner = getattr(importlib.import_module(module_name), owner_name)
                self._patch(owner, attr, self._registration(owner.__dict__[attr], index))
            self._install_scenario_hooks()
            yield self
        finally:
            while self._restore:
                owner, name, value = self._restore.pop()
                setattr(owner, name, value)

    def _install_scenario_hooks(self) -> None:
        scenario_module = importlib.import_module("repro.experiments.scenario")
        tracer = self
        make_simulator = scenario_module.make_simulator
        build = scenario_module.build_scenario
        run = scenario_module.Scenario.run

        def traced_make_simulator(*args: Any, **kwargs: Any) -> _SimProxy:
            return _SimProxy(make_simulator(*args, **kwargs), tracer)

        def traced_build(config: Any) -> Any:
            tracer.defense = config.effective_defense()
            return tracer.call(("harness.build", "build_scenario"), build, config)

        def traced_run(scenario: Any) -> Any:
            tracer.defense = scenario.config.effective_defense()
            report = tracer.call(("harness.job", "run"), run, scenario)
            tracer.call(("bench.harvest", "harvest"), tracer.harvest, scenario, report)
            return report

        trace_cls = importlib.import_module("repro.sim.trace").TraceLog
        subscribe = trace_cls.__dict__["subscribe"]

        def traced_subscribe(trace: Any, kind: str, callback: Any) -> Any:
            tracer._subscribed.setdefault(trace, set()).add(kind)
            return subscribe(trace, kind, tracer.wrap_callback(callback))

        self._patch(scenario_module, "make_simulator", traced_make_simulator)
        self._patch(scenario_module, "build_scenario", traced_build)
        self._patch(scenario_module.Scenario, "run", traced_run)
        self._patch(trace_cls, "subscribe", traced_subscribe)
        # The facade re-exports build_scenario under its own name.
        self._patch(importlib.import_module("repro.api"), "build_scenario", traced_build)

    # -- counters ----------------------------------------------------------
    def harvest(self, scenario: Any, report: Any) -> None:
        """Add one finished scenario's own counters (timed as ``bench.harvest``)."""
        c = self.counters
        trace = scenario.trace
        kinds = self._subscribed.get(trace, set())
        c["sim.events"] += scenario.sim.events_processed
        c["trace.emits"] += trace.total_emitted
        c["trace.resident_records"] += trace.resident_records
        c["trace.subscribed_records"] += sum(1 for record in trace if record.kind in kinds)
        channel = scenario.network.channel
        c["net.transmits"] += channel.transmissions
        c["net.collisions"] += channel.collisions
        for node_id in scenario.network.node_ids():
            node = scenario.network.node(node_id)
            c["net.mac_dropped"] += node.mac.dropped
            c["net.frames_received"] += node.frames_received
            c["net.frames_rejected"] += node.frames_rejected
        c["core.detections"] += report.detections
