"""One pass of one workload, in the fresh interpreter :mod:`run` starts.

Prints a single JSON line: set-up, wall and CPU seconds, peak RSS, the
report digest and, with ``--trace``, the per-layer table of the traced
pass.  ``--setup-only`` stops after set-up (extra set-up samples).

    python3 e2ebench/one_pass.py --workload mesh200 --seed 4 --spawned-at T
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def layer_metrics(tracer: Any, import_s: float) -> Dict[str, float]:
    """The per-layer metric names of BENCHMARK.json from one traced pass."""
    layers = tracer.layer_self_s()
    calls = tracer.calls
    counters = tracer.counters

    def self_s(*names: str) -> float:
        return sum(layers.get(name, 0.0) for name in names)

    def calls_of(layer: str, *functions: str) -> int:
        return sum(calls.get((layer, function), 0) for function in functions)

    received = counters["net.frames_received"]
    resident = counters["trace.resident_records"]
    metrics = {
        "sim.events": counters["sim.events"],
        "sim.dispatch_self_s": self_s("sim.dispatch"),
        "trace.emits": counters["trace.emits"],
        "trace.emit_self_s": self_s("trace.emit"),
        "trace.resident_records": resident,
        "trace.subscribed_frac": counters["trace.subscribed_records"] / resident if resident else 0.0,
        "net.transmits": counters["net.transmits"],
        "net.collisions": counters["net.collisions"],
        "net.transmit_self_s": self_s("net.transmit"),
        "net.mac_send_self_s": self_s("net.mac_send"),
        "net.mac_dropped": counters["net.mac_dropped"],
        "net.deliver_self_s": self_s("net.deliver"),
        "net.rejected_frac": counters["net.frames_rejected"] / received if received else 0.0,
        "core.observe_calls": calls_of("core.observe", "observe", "observe_own"),
        "core.observe_self_s": self_s("core.observe"),
        "core.isolation_self_s": self_s("core.isolation"),
        "core.agent_self_s": self_s("core.agent"),
        "core.detections": counters["core.detections"],
        "routing.on_frame_calls": calls_of("routing", "on_frame"),
        "routing.self_s": self_s("routing"),
        "routing.data_sent": calls_of("routing", "send_data"),
        "attacks.self_s": self_s("attacks"),
        "traffic.self_s": self_s("traffic"),
        "metrics.subscriber_self_s": self_s("metrics.subscriber"),
        "metrics.report_s": self_s("metrics.report"),
        "harness.import_s": import_s,
        "harness.build_s": self_s("harness.build"),
        "harness.cache_put_s": self_s("harness.cache_put"),
        "harness.journal_s": self_s("harness.journal"),
        "harness.job_overhead_s": self_s("harness.job"),
        "bench.harvest_s": self_s("bench.harvest"),
        "bench.traced_wall_s": tracer.wall_s,
        "unattributed_s": tracer.unattributed_s,
    }
    # LITEWORP's own runtime is all in repro.core, so it has no entry here.
    for plugin in ("geo_leash", "rtt", "snd", "temporal_leash"):
        metrics[f"defenses.{plugin}.self_s"] = self_s(f"defenses.{plugin}")
    return {name: float(value) for name, value in metrics.items()}


def run_pass(args: argparse.Namespace) -> Dict[str, Any]:
    import repro  # noqa: F401  (the import being timed)
    import repro.api  # noqa: F401

    imported = time.perf_counter()
    # Sibling modules; imported after the timed import of repro.
    from workloads import Workload, digest

    from repro.sim import accel

    workload = Workload(args.workload, args.seed, smoke=args.smoke, workdir=args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    result: Dict[str, Any] = {
        "ok": True,
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "kernel": "repro.sim._ckernel" if accel.kernel_available() else "repro.sim.engine",
        "import_s": imported - STARTED,
    }
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        if tracer is not None:
            tracer.start()
        workload.setup()
        built = time.perf_counter()
        cpu_built = time.process_time()
        outcome = None if args.setup_only else workload.run()
        done = time.perf_counter()
        cpu_done = time.process_time()
        if tracer is not None:
            tracer.stop()
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, imported - STARTED)
    result["setup_s"] = built - (args.spawned_at if args.spawned_at is not None else STARTED)
    result["build_s"] = built - imported
    result["wall_s"] = done - built
    result["cpu_s"] = cpu_done - cpu_built
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.setup_only:
        result["digest"] = digest(workload.check(outcome))
        result["pinned"] = workload.pinned
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=pathlib.Path, default=None)
    parser.add_argument(
        "--spawned-at", type=float, default=None,
        help="parent's time.perf_counter() at spawn (CLOCK_MONOTONIC is host-wide)",
    )
    args = parser.parse_args(argv)
    try:
        result = run_pass(args)
    except Exception as exc:  # noqa: BLE001 - reported to the parent as a failed pass
        traceback.print_exc()
        print(json.dumps({"ok": False, "error": f"{args.workload}: {type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
