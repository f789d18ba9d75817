"""Full-stack RCB benchmark: one workload, one seed, one run.

    python3 rcbbench/run.py --workload surf --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run sets the world up three times (``setup_s`` is the median), runs
the workload's untimed warm-up, then whole rounds until ``--seconds`` of
timed wall time have passed and at least ``--rounds`` rounds ran.
Checks run between steps with the clock stopped.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the
traced ones (``trace.overhead_ratio`` compares the two kinds).  Sync-time
and byte metrics come from the first ``--rounds`` rounds only, so they
repeat exactly for a given seed; timings come from every round.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


class WireMeter:
    """Bytes the program sent on every simulated connection."""

    def __init__(self):
        from repro.net.socket import Connection

        self.total = 0
        meter = self
        send, sendv = Connection.send, Connection.sendv

        def metered_send(connection, data):
            before = connection.bytes_sent
            event = send(connection, data)
            meter.total += connection.bytes_sent - before
            return event

        def metered_sendv(connection, buffers):
            before = connection.bytes_sent
            event = sendv(connection, buffers)
            meter.total += connection.bytes_sent - before
            return event

        Connection.send = metered_send
        Connection.sendv = metered_sendv


class Tally:
    """Ops, failures and step times of a set of rounds."""

    def __init__(self):
        self.rounds = 0
        self.ops = 0
        self.failed = 0
        self.expected_failures = 0
        self.wall = 0.0
        self.steps_ms = []

    def add(self, other):
        self.rounds += other.rounds
        self.ops += other.ops
        self.failed += other.failed
        self.expected_failures += other.expected_failures
        self.wall += other.wall
        self.steps_ms.extend(other.steps_ms)


def run_round(world, steps, misses):
    """Drive ``steps``; returns the round's Tally (wall excludes checks)."""
    sim = world.sim
    tally = Tally()
    tally.rounds = 1
    clock = time.perf_counter
    for step in steps:
        args = (step.prepare(),) if step.prepare is not None else ()
        started = clock()
        value = sim.run_until_complete(sim.process(step.run(*args)))
        elapsed = clock() - started
        tally.wall += elapsed
        if step.idle:
            continue
        tally.steps_ms.append(elapsed * 1000.0)
        result = step.check(value)
        tally.ops += result.ops
        tally.failed += result.failed
        tally.expected_failures += result.expected_failures
        misses.extend(result.misses)
    return tally


def registry_sums(world, names):
    sums = dict.fromkeys(names, 0)
    for instrument in world.session.metrics.collect():
        if instrument.name in sums:
            sums[instrument.name] += instrument.value
    return sums


def pool_migrations(world):
    pool = getattr(world, "pool", None)
    return pool.migrations if pool is not None else 0


AGENT_COUNTERS = (
    "agent_segments_reused",
    "agent_segments_total",
    "agent_delta_responses",
    "agent_delta_fallbacks",
    "agent_serve_plans_built",
    "agent_serve_batched_polls",
)


def layer_metrics(tracer, traced, untraced, counters, migrations):
    """Per-layer metrics of the traced rounds."""
    ops = max(traced.ops, 1)
    metrics = {}
    totals = tracer.layer_totals()
    for layer, (calls, seconds) in totals.items():
        metrics["%s.calls_per_op" % layer] = (calls / ops, "calls/op")
        metrics["%s.self_ms_per_op" % layer] = (seconds * 1000.0 / ops, "ms/op")
    http_requests = tracer.entries.get(("http", "request"), [0, 0.0])[0]
    metrics["http.requests_per_op"] = (http_requests / ops, "req/op")
    counts = tracer.counts
    metrics["xmlformat.decoded_kb_per_op"] = (
        counts["xmlformat.decoded_bytes"] / 1024.0 / ops,
        "KB/op",
    )
    metrics["html.parsed_kb_per_op"] = (counts["html.parsed_bytes"] / 1024.0 / ops, "KB/op")
    metrics["browser.discover_self_ms_per_op"] = (
        tracer.entries.get(("browser", "discover_object_urls"), [0, 0.0])[1] * 1000.0 / ops,
        "ms/op",
    )
    metrics["snippet.useful_poll_ratio"] = (
        _ratio(counts["snippet.useful_polls"], counts["snippet.polls"]),
        "ratio",
    )
    metrics["content.segment_reuse_ratio"] = (
        _ratio(counters["agent_segments_reused"], counters["agent_segments_total"]),
        "ratio",
    )
    metrics["delta.fallback_ratio"] = (
        _ratio(
            counters["agent_delta_fallbacks"],
            counters["agent_delta_fallbacks"] + counters["agent_delta_responses"],
        ),
        "ratio",
    )
    built = counters["agent_serve_plans_built"]
    metrics["agent.serve_amortization"] = (
        _ratio(built + counters["agent_serve_batched_polls"], built),
        "polls/plan",
    )
    metrics["shard.migrations_per_op"] = (migrations / ops, "migrations/op")
    metrics["trace.overhead_ratio"] = (
        _ratio(traced.ops / traced.wall, untraced.ops / untraced.wall),
        "ratio",
    )
    self_total = sum(seconds for _calls, seconds in totals.values())
    metrics["trace.self_time_share"] = (_ratio(self_total, traced.wall), "ratio")
    return metrics


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("surf", "broadcast", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="rounds that always run and feed the sync-time and byte metrics "
        "(default: the workload's own minimum)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("rcbbench: no program to measure: %s/repro is missing" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from layers import LayerTracer
    from workloads import WORKLOADS

    meter = WireMeter()
    workload_cls = WORKLOADS[args.workload]
    min_rounds = args.rounds if args.rounds is not None else workload_cls.min_rounds

    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
    setups = []
    world = None
    for _ in range(SETUP_REPEATS):
        world = None
        gc.collect()
        started = time.perf_counter()
        world = workload_cls().setup(args.seed)
        setups.append(time.perf_counter() - started)

    misses = []
    run_round(world, world.warmup_steps(), misses)
    gc.collect()

    untraced, traced, prefix = Tally(), Tally(), Tally()
    counters = dict.fromkeys(AGENT_COUNTERS, 0)
    migrations = 0
    prefix_samples = None
    bytes_start = meter.total
    samples_start = len(world.probe.samples)
    prefix_bytes = None
    index = 0
    while True:
        tracing = tracer is not None and index % 2 == 1
        steps = world.round_steps(index)
        if tracing:
            before = registry_sums(world, AGENT_COUNTERS)
            moved = pool_migrations(world)
            tracer.active = True
            try:
                tally = run_round(world, steps, misses)
            finally:
                tracer.active = False
            after = registry_sums(world, AGENT_COUNTERS)
            for name in AGENT_COUNTERS:
                counters[name] += after[name] - before[name]
            migrations += pool_migrations(world) - moved
            traced.add(tally)
        else:
            tally = run_round(world, steps, misses)
            untraced.add(tally)
        index += 1
        if index <= min_rounds:
            prefix.add(tally)
        if index == min_rounds:
            prefix_samples = world.probe.samples[samples_start:]
            prefix_bytes = meter.total - bytes_start
        elapsed = untraced.wall + traced.wall
        if index >= min_rounds and elapsed >= args.seconds and (tracer is None or index % 2 == 0):
            break

    attempted = untraced.ops + traced.ops
    failed = untraced.failed + traced.failed
    expected = untraced.expected_failures + traced.expected_failures
    correct = not misses and failed == expected
    for text in misses[:20]:
        print("MISS %s" % text)

    end_to_end = {
        "ops_per_s": (untraced.ops / untraced.wall, "1/s"),
        "step_ms_p50": (statistics.median(untraced.steps_ms), "ms"),
        "step_ms_p95": (percentile(untraced.steps_ms, 0.95), "ms"),
        "sync_sim_ms_p50": (statistics.median(prefix_samples) * 1000.0, "ms"),
        "sync_sim_ms_p95": (percentile(prefix_samples, 0.95) * 1000.0, "ms"),
        "wire_bytes_per_op": (prefix_bytes / prefix.ops, "B"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(
        "%s seed=%d: %d untraced rounds (%d ops, %d steps), %d traced rounds (%d ops); "
        "%d sync samples in the first %d rounds"
        % (
            args.workload,
            args.seed,
            untraced.rounds,
            untraced.ops,
            len(untraced.steps_ms),
            traced.rounds,
            traced.ops,
            len(prefix_samples),
            min_rounds,
        )
    )
    report = dict(end_to_end)
    metrics = end_to_end
    if tracer is not None:
        metrics = layer_metrics(tracer, traced, untraced, counters, migrations)
        report.update(metrics)
    for name, (value, unit) in report.items():
        print("  %-34s %14.4f %s" % (name, value, unit))
    if tracer is not None:
        print("entry points by self time (traced rounds):")
        entries = sorted(tracer.entries.items(), key=lambda item: -item[1][1])
        for (layer, entry), (calls, seconds) in entries[:16]:
            print(
                "  %-42s %8.3f ms/op %6.1f%% of wall %9.2f calls/op"
                % (
                    "%s.%s" % (layer, entry),
                    seconds * 1000.0 / traced.ops,
                    100.0 * seconds / traced.wall,
                    calls / traced.ops,
                )
            )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
