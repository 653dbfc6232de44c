"""The tracer's accounting and its clean removal."""

import importlib

import pytest

import tracer as tracer_module
from tracer import ENTRY_POINTS, REGISTRATIONS, Tracer, module_layer
from workloads import Workload


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_spans_are_not_double_counted():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def inner():
        clock.advance(4.0)

    def outer():
        clock.advance(1.0)
        t.call(("routing", "inner"), inner)
        clock.advance(2.0)
        t.call(("routing", "inner"), inner)
        clock.advance(3.0)

    t.start()
    t.call(("net.deliver", "outer"), outer)
    t.stop()
    assert t.self_s[("net.deliver", "outer")] == pytest.approx(6.0)
    assert t.self_s[("routing", "inner")] == pytest.approx(8.0)
    assert t.calls[("routing", "inner")] == 2
    assert t.wall_s == pytest.approx(14.0)
    assert t.unattributed_s == pytest.approx(0.0)


def test_self_times_plus_unattributed_sum_to_wall():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def leaf():
        clock.advance(0.5)

    def stray():  # defined outside every mapped module
        clock.advance(0.25)

    def middle():
        clock.advance(1.0)
        t.call(("trace.emit", "emit"), leaf)
        t.wrap_callback(stray)()

    t.start()
    clock.advance(2.0)  # covered by no span
    t.call(("core.observe", "observe"), middle)
    t.call(("sim.dispatch", "run"), leaf)
    t.stop()
    layers = t.layer_self_s()
    assert sum(layers.values()) + t.unattributed_s == pytest.approx(t.wall_s)
    assert t.unattributed_s == pytest.approx(2.25)
    assert layers == pytest.approx({"core.observe": 1.0, "trace.emit": 0.5, "sim.dispatch": 0.5})


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    t.start()
    with pytest.raises(ValueError):
        t.call(("routing", "boom"), boom)
    clock.advance(1.0)
    t.stop()
    assert t.self_s[("routing", "boom")] == pytest.approx(1.0)
    assert t.unattributed_s == pytest.approx(1.0)


def test_callbacks_are_charged_to_their_defining_module():
    assert module_layer("repro.core.monitor") == "core.observe"
    assert module_layer("repro.core.agent") == "core.agent"
    assert module_layer("repro.net.mac") == "net.mac_send"
    assert module_layer("repro.sim.trace") == "trace.emit"
    assert module_layer("repro.sim.engine") == "sim.dispatch"
    assert module_layer("repro.routing.ondemand") == "routing"
    assert module_layer("repro.simulation") == "unattributed"
    assert module_layer(None) == "unattributed"
    t = Tracer()
    t.defense = "rtt"
    from repro.defenses.rtt import RttDefense

    assert t.key_for(RttDefense.attach_honest)[0] == "defenses.rtt"


def _originals():
    owners = []
    for module_name, owner_name, attr, *_ in ENTRY_POINTS + REGISTRATIONS:
        owner = getattr(importlib.import_module(module_name), owner_name)
        owners.append((owner, attr, owner.__dict__[attr]))
    scenario = importlib.import_module("repro.experiments.scenario")
    api = importlib.import_module("repro.api")
    trace = importlib.import_module("repro.sim.trace")
    for owner, attr in (
        (scenario, "make_simulator"),
        (scenario, "build_scenario"),
        (scenario.Scenario, "run"),
        (api, "build_scenario"),
        (trace.TraceLog, "subscribe"),
    ):
        owners.append((owner, attr, owner.__dict__[attr]))
    return owners


def _smoke_report(traced: bool):
    workload = Workload("mesh200", seed=5, smoke=True)
    t = Tracer()
    if traced:
        with t.installed():
            t.start()
            workload.setup()
            text = workload.check(workload.run())
            t.stop()
    else:
        workload.setup()
        text = workload.check(workload.run())
    return text, t


def test_wrappers_are_gone_after_a_traced_run():
    before = _originals()
    _, t = _smoke_report(traced=True)
    assert t.calls, "the traced run recorded no spans"
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} still wrapped"
    scenario = importlib.import_module("repro.api").build_scenario(
        Workload("mesh200", seed=5, smoke=True).base_config()
    )
    assert not isinstance(scenario.sim, tracer_module._SimProxy)


def test_tracing_leaves_the_report_byte_identical_and_accounts_for_wall():
    plain, _ = _smoke_report(traced=False)
    traced, t = _smoke_report(traced=True)
    assert traced == plain
    layers = t.layer_self_s()
    assert sum(layers.values()) + t.unattributed_s == pytest.approx(t.wall_s, rel=1e-9)
    assert layers["core.observe"] > 0 and layers["net.transmit"] > 0
    assert t.counters["sim.events"] > 0 and t.counters["trace.emits"] > 0


def test_install_is_not_reentrant():
    t = Tracer()
    with t.installed():
        with pytest.raises(RuntimeError):
            with t.installed():
                pass
