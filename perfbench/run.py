"""Paper-workload co-simulation benchmark.

Runs one workload of the router case study under all three schemes
(GDB-Wrapper, GDB-Kernel, Driver-Kernel) for a fixed simulated span,
in whole rounds until ``--seconds`` of host time have passed, checks
every simulation's outputs, and prints the metrics as the last line of
standard output (one JSON object).  ``--trace 0`` times the untraced
runs (end-to-end metrics); ``--trace 1`` pairs each untraced run with a
run traced through :mod:`layers` (per-layer metrics).

End-to-end times are scaled to a reference host speed: a fixed
pure-Python probe is timed right before and right after every untraced
simulation (one probe between two simulations serves both), and the
simulation's host seconds are multiplied by ``REFERENCE_PROBE_S`` over
the mean probe time.  A shared host changes speed by 2x and more over
minutes; the probe slows with it, so the scaled time follows the
program, not the host.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1-q1 --seed 1 \\
        --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads and what each metric
should move.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Environment overrides of the program's defaults.  They are removed
#: so the ambient shell cannot change what is measured.
PINNED_ENV = ("REPRO_PARALLEL", "REPRO_WORKERS", "REPRO_TIER")

SCHEMES = ("gdb-wrapper", "gdb-kernel", "driver-kernel")
US = 1_000_000_000        # femtoseconds per microsecond

#: name -> (simulated span in µs, RouterConfig overrides).  Every
#: scheme of a workload simulates the same span; everything not named
#: here (tier, telemetry, DMI, serial dispatch) is the program default.
#: Spans are short enough for 20 or more rounds in a 30-second run: a
#: single simulation's scaled time still varies by about 10%, and the
#: median over that many is what makes one run repeat the next.
WORKLOADS = {
    # The paper's Table-1 router: 4x4 ports, 4 producers, word-sum
    # checksum, one CPU, lock-step.  Per-timestep costs dominate.
    "table1-q1": (1000, dict(inter_packet_delay=30 * US, sync_quantum=1)),
    # The Figure-7 contended point.  Per-packet costs dominate.
    "fig7-contended-q8": (500, dict(inter_packet_delay=8 * US,
                                    sync_quantum=8)),
    # CRC-32 on a 4-CPU MPSoC.  ISS execution dominates.
    "mpsoc-crc32": (200, dict(num_cpus=4, producer_count=4,
                              algorithm="crc32", checksum_rounds=8,
                              cpu_hz=1_000_000_000,
                              inter_packet_delay=30 * US,
                              sync_quantum=32)),
}

#: Host seconds ``probe()`` takes on the reference host.  End-to-end
#: times are reported as host seconds on that host.
REFERENCE_PROBE_S = 0.05

#: metric suffix -> trace layer whose self time it reports.
SELF_TIME_METRICS = {
    "sysc.self_s": "sysc",
    "cosim.hook_self_s": "cosim.hook",
    "cosim.transfer_self_s": "cosim.transfer",
    "gdb.self_s": "gdb",
    "gdb.rsp_self_s": "gdb.rsp",
    "iss.self_s": "iss",
    "rtos.self_s": "rtos",
    "obs.telemetry_self_s": "obs",
}

#: Deterministic per-layer counts read off a finished system.
COUNT_METRICS = (
    "sysc.timesteps", "sysc.deltas",
    "cosim.grants", "cosim.quantum_syncs", "cosim.sync_transactions",
    "cosim.cheap_polls", "cosim.transfer_transactions", "cosim.messages",
    "iss.instructions", "iss.cycles", "iss.blocks_compiled",
    "iss.block_hits", "iss.superblocks_compiled", "iss.superblock_exits",
    "rtos.context_switches", "rtos.ticks", "rtos.isr_count",
    "obs.telemetry_points",
    "router.generated", "router.forwarded", "router.input_drops",
    "router.output_drops",
)

#: Counts only the layer trace can make (wrapper call counts).
TRACE_COUNT_METRICS = {
    "iss.cache_flushes": "cache_flushes",
    "gdb.rsp_packets": "rsp_packets",
    "gdb.rsp_bytes": "rsp_bytes",
}



def reported(scheme, metric):
    """RSP metrics only on the GDB schemes, guest-RTOS metrics only on
    Driver-Kernel."""
    skip = "rtos." if scheme.startswith("gdb") else "gdb."
    return not metric.startswith(skip)


def per_layer_names(scheme):
    """Every per-layer metric of *scheme*, without the scheme prefix."""
    names = (list(SELF_TIME_METRICS) + list(COUNT_METRICS)
             + list(TRACE_COUNT_METRICS)
             + ["iss.block_hit_ratio", "router.latency_mean_us",
                "trace.host_s", "trace.overhead_s", "trace.unaccounted_s"])
    return [name for name in names if reported(scheme, name)]


def unit_of(name):
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def prefix(scheme):
    return scheme.replace("-", "_")


# -- one operation ------------------------------------------------------------

class Outcome:
    """One scheme's simulation of a workload, and what it produced."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.setup_s = None
        self.host_s = None
        self.probe_s = None
        self.counts = {}
        self.delivered = ()
        self.forwarded_percent = 0.0
        self.latency_mean_us = 0.0
        self.environment = {}
        self.trace = None
        self.problems = []

    @property
    def failed(self):
        return bool(self.problems)

    def scaled(self, seconds):
        """*seconds* of this operation as host seconds on the reference
        host (see ``probe``)."""
        return seconds * REFERENCE_PROBE_S / self.probe_s


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, following):
        self.key = key
        self.value = value
        self.next = following


def _probe_table():
    table, head = {}, None
    for index in range(40_000):
        head = _Node(index, index * 3, head)
        table[(index * 7919) % 400_009] = head
    return table


#: The probe's working set, built once so that it adds a constant to
#: peak RSS instead of setting the peak itself.
PROBE_TABLE = _probe_table()


def probe():
    """Host seconds of a fixed pure-Python workload (~0.04 s).

    It mixes an integer loop with dict lookups, attribute access and
    object allocation over a table of about 10 MiB, like the simulator,
    so a host slowed by its neighbours slows it and the simulator
    alike; an integer loop alone tracks the simulator two to three times
    worse.  Every call does the same work and leaves the table the
    same size.  The collector runs first and is off while the probe is
    timed, so the simulated systems' garbage does not change its time.
    """
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for index in range(100_000):
            total = (total + index * index) & 0xFFFFFFFF
        table = PROBE_TABLE
        for index in range(60_000):
            key = (index * 104_729) % 400_009
            node = table.get(key)
            if node is not None:
                table[key] = _Node(key, (node.value + total) & 0xFFFF,
                                   node.next)
        return time.perf_counter() - started
    finally:
        gc.enable()


def read_counts(system):
    """The deterministic counters of a finished system."""
    metrics = system.metrics
    sampler = system.telemetry
    counts = {
        "sysc.timesteps": system.kernel.timestep_count,
        "sysc.deltas": system.kernel.delta_count,
        "cosim.messages": metrics.messages_sent + metrics.messages_received,
        "iss.instructions": sum(cpu.instructions for cpu in system.cpus),
        "iss.cycles": sum(cpu.cycles for cpu in system.cpus),
        "rtos.context_switches": sum(rtos.context_switches
                                     for rtos in system.rtoses),
        "rtos.ticks": sum(rtos.tick_count for rtos in system.rtoses),
        "rtos.isr_count": sum(rtos.isr_count for rtos in system.rtoses),
        "obs.telemetry_points": (len(sampler.series) + sampler.series.evicted
                                 if sampler is not None else 0),
    }
    for name in ("grants", "quantum_syncs", "sync_transactions",
                 "cheap_polls", "transfer_transactions"):
        counts["cosim." + name] = getattr(metrics, name)
    for name in ("blocks_compiled", "block_hits", "superblocks_compiled",
                 "superblock_exits"):
        counts["iss." + name] = sum(getattr(cpu, name) for cpu in system.cpus)
    return counts


def simulate(workload, scheme, seed, trace=None):
    """Build, run and check one system; never raises."""
    from checks import DeliveryLog, check_system
    from repro.router.system import RouterConfig, RouterSystem

    outcome = Outcome(scheme)
    span_us, overrides = WORKLOADS[workload]
    gc.collect()
    try:
        if trace is not None:
            trace.install()
        try:
            started = time.perf_counter()
            system = RouterSystem(RouterConfig(scheme=scheme, seed=seed,
                                               **overrides))
            outcome.setup_s = time.perf_counter() - started
            if trace is not None:
                trace.reset()       # spans of the build are set-up
            with system:
                log = DeliveryLog(system)
                started = time.perf_counter()
                system.run(span_us * US)
                outcome.host_s = time.perf_counter() - started
        finally:
            if trace is not None:
                trace.uninstall()
        outcome.problems = check_system(system, log)
        stats = system.stats()
        outcome.counts = read_counts(system)
        outcome.counts.update({
            "router.generated": stats.generated,
            "router.forwarded": stats.forwarded,
            "router.input_drops": stats.input_drops,
            "router.output_drops": stats.output_drops,
        })
        outcome.delivered = log.signature()
        outcome.forwarded_percent = stats.forwarded_percent
        outcome.latency_mean_us = stats.latency_mean_fs / US
        outcome.environment = {
            "tier": system.cpus[0].tier,
            "telemetry": "on" if system.telemetry is not None else "off",
            "dmi": "on" if system.config.dmi else "off",
            "quantum": system.config.sync_quantum,
            "parallel": system.config.parallel or "serial",
        }
        outcome.trace = trace
    except Exception:       # one failed operation must not end the run
        outcome.problems = ["raised:\n" + traceback.format_exc()]
    return outcome


# -- rounds -------------------------------------------------------------------

def compare(outcome, reference, what):
    """Property check: *outcome* must match *reference*'s results."""
    if outcome.failed or reference.failed:
        return
    if outcome.counts != reference.counts:
        diff = sorted(name for name in outcome.counts
                      if outcome.counts[name] != reference.counts.get(name))
        outcome.problems.append("%s: counts differ in %s" % (what, diff))
    if outcome.delivered != reference.delivered:
        outcome.problems.append("%s: delivered packets differ" % what)


def run_round(workload, seed, traced, first):
    """One simulation per scheme (two with tracing); returns outcomes."""
    from layers import LayerTrace

    untraced, traced_runs = {}, {}
    before = probe()
    for scheme in SCHEMES:
        untraced[scheme] = simulate(workload, scheme, seed)
        after = probe()
        untraced[scheme].probe_s = (before + after) / 2
        before = after
        if traced:
            traced_runs[scheme] = simulate(workload, scheme, seed,
                                           LayerTrace())
            compare(traced_runs[scheme], untraced[scheme],
                    "traced vs untraced run")
            before = probe()
    # GDB-Wrapper and GDB-Kernel differ only in where the RSP wrapper
    # lives: same guest work, same packets.
    wrapper, kernel = untraced["gdb-wrapper"], untraced["gdb-kernel"]
    if not (wrapper.failed or kernel.failed):
        if (wrapper.counts["iss.instructions"]
                != kernel.counts["iss.instructions"]):
            kernel.problems.append(
                "retired %d instructions, GDB-Wrapper %d"
                % (kernel.counts["iss.instructions"],
                   wrapper.counts["iss.instructions"]))
        # Completion order across CPUs follows each scheme's timing,
        # so the packets are compared as a multiset.
        if sorted(wrapper.delivered) != sorted(kernel.delivered):
            kernel.problems.append("delivered packets differ from "
                                   "GDB-Wrapper's")
    if first is not None:
        for scheme in SCHEMES:
            compare(untraced[scheme], first[scheme],
                    "repeat of the same inputs")
        # Only the first round's packets are compared again; keeping
        # every round's would make peak memory grow with the round
        # count, that is, with host speed.
        for outcome in list(untraced.values()) + list(traced_runs.values()):
            outcome.delivered = ()
    return untraced, traced_runs


def median_of(outcomes, field, scaled=False):
    """Median over the operations that got as far as measuring *field*
    (a failed check does not void the timing); *scaled* to the
    reference host."""
    measured = [(outcome, getattr(outcome, field)) for outcome in outcomes
                if getattr(outcome, field) is not None]
    values = [outcome.scaled(value) if scaled else value
              for outcome, value in measured]
    return statistics.median(values) if values else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


def end_to_end(rounds, first):
    """The untraced metrics from the measured rounds, times scaled to
    the reference host."""
    metrics = {}
    for scheme in SCHEMES:
        host_s = median_of([untraced[scheme] for untraced, __ in rounds],
                           "host_s", scaled=True)
        instructions = first[scheme].counts.get("iss.instructions", 0)
        metrics[prefix(scheme) + ".host_s"] = (host_s, "s")
        metrics[prefix(scheme) + ".kips"] = (
            instructions / host_s / 1e3 if host_s else 0.0, "kinstr/s")
    setups = [sum(outcome.scaled(outcome.setup_s)
                  for outcome in untraced.values())
              for untraced, __ in rounds
              if all(outcome.setup_s is not None
                     for outcome in untraced.values())]
    metrics["setup_s"] = (statistics.median(setups) if setups else 0.0, "s")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MiB")
    return metrics


def per_layer(rounds):
    """The traced metrics: means over the measured traced runs.

    Means, not medians, so that each scheme's self times plus
    ``trace.unaccounted_s`` add up to ``trace.host_s`` exactly as they
    do in every single run.
    """
    metrics, problems = {}, []
    for scheme in SCHEMES:
        pairs = [(untraced[scheme], traced[scheme])
                 for untraced, traced in rounds
                 if not (untraced[scheme].failed or traced[scheme].failed)]
        if not pairs:
            problems.append("%s: no traced run succeeded" % scheme)
            continue
        traced_runs = [traced for __, traced in pairs]
        first = traced_runs[0]
        values = {}
        for name, layer in SELF_TIME_METRICS.items():
            if reported(scheme, name):
                values[name] = mean([run.trace.self_s.get(layer, 0.0)
                                     for run in traced_runs])
        hidden = [layer for name, layer in SELF_TIME_METRICS.items()
                  if not reported(scheme, name)
                  and any(run.trace.self_s.get(layer) for run in traced_runs)]
        if hidden:
            problems.append("%s: time in unreported layers %s"
                            % (scheme, hidden))
        for name in COUNT_METRICS:
            if reported(scheme, name):
                values[name] = first.counts[name]
        for name, key in TRACE_COUNT_METRICS.items():
            if reported(scheme, name):
                values[name] = first.trace.counts[key]
        hits = first.counts["iss.block_hits"]
        compiled = first.counts["iss.blocks_compiled"]
        values["iss.block_hit_ratio"] = (hits / (hits + compiled)
                                         if hits + compiled else 0.0)
        values["router.latency_mean_us"] = first.latency_mean_us
        traced_host = mean([run.host_s for run in traced_runs])
        values["trace.host_s"] = traced_host
        values["trace.overhead_s"] = traced_host - mean(
            [untraced.host_s for untraced, __ in pairs])
        values["trace.unaccounted_s"] = mean(
            [run.host_s - run.trace.covered_s for run in traced_runs])
        accounted = sum(values[name] for name in SELF_TIME_METRICS
                        if name in values) + values["trace.unaccounted_s"]
        if abs(accounted - traced_host) > 1e-6 * max(1.0, traced_host):
            problems.append("%s: self times + unaccounted = %.9f s, traced "
                            "host time %.9f s" % (scheme, accounted,
                                                  traced_host))
        for name in per_layer_names(scheme):
            metrics[prefix(scheme) + "." + name] = (values[name],
                                                    unit_of(name))
    return metrics, problems


def print_report(workload, span_us, rounds, environment, cleared):
    """Fidelity and calibration report (no metrics, no bounds)."""
    samples = len(rounds)
    runs = {scheme: [untraced[scheme] for untraced, __ in rounds]
            for scheme in SCHEMES}
    host = {scheme: median_of(runs[scheme], "host_s") for scheme in SCHEMES}
    first = rounds[0][0]
    print("workload %s: %d us simulated per scheme, %d measured rounds"
          % (workload, span_us, samples))
    print("environment: tier=%(tier)s telemetry=%(telemetry)s dmi=%(dmi)s "
          "quantum=%(quantum)s parallel=%(parallel)s" % environment
          + " python=%s cleared=%s" % (platform.python_version(),
                                       ",".join(cleared) or "none"))
    for scheme in SCHEMES:
        print("  %-13s host %.4f s (median of %d; %.4f s on the reference "
              "host)  forwarded %.1f%%  instructions %d"
              % (scheme, host[scheme], samples,
                 median_of(runs[scheme], "host_s", scaled=True),
                 first[scheme].forwarded_percent,
                 first[scheme].counts.get("iss.instructions", 0)))
    paper = {"gdb-kernel": "~1.3x", "driver-kernel": "~3x"}
    for scheme in ("gdb-kernel", "driver-kernel"):
        ratio = host["gdb-wrapper"] / host[scheme] if host[scheme] else 0.0
        note = (" (paper Table 1: %s)" % paper[scheme]
                if workload == "table1-q1" else "")
        print("  host-time ratio gdb-wrapper/%s = %.2fx%s"
              % (scheme, ratio, note))
    if workload == "fig7-contended-q8":
        print("  Fig-7 contended point (8 us delay) forwarding: "
              + ", ".join("%s %.1f%%" % (scheme,
                                         first[scheme].forwarded_percent)
                          for scheme in SCHEMES))
    probes = [outcome for scheme in SCHEMES for outcome in runs[scheme]]
    print("  host calibration: the speed probe took %.4f s (median of %d; "
          "%.4f s on the reference host)"
          % (median_of(probes, "probe_s"), len(probes), REFERENCE_PROBE_S))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program sources at %s; run from a checkout of "
              "the repository" % SRC, file=sys.stderr)
        return 2
    cleared = [name for name in PINNED_ENV if os.environ.pop(name, None)
               is not None]
    # The program is imported from the checkout's sources, so the
    # benchmark's modules import it inside functions, after this.
    sys.path.insert(0, SRC)
    import checks
    checks.self_test()
    traced = bool(args.trace)

    # The first round warms imports and lazy set-up and is checked but
    # not timed; it is also the reference every later round must repeat.
    first, first_traced = run_round(args.workload, args.seed, traced, None)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run_round(args.workload, args.seed, traced, first))

    outcomes = []
    for untraced, traced_runs in [(first, first_traced)] + rounds:
        outcomes += list(untraced.values()) + list(traced_runs.values())
    failed = [outcome for outcome in outcomes if outcome.failed]
    for outcome in failed:
        print("FAILED %s: %s" % (outcome.scheme,
                                 "; ".join(outcome.problems)[:2000]),
              file=sys.stderr)
    problems = []
    if traced:
        metrics, problems = per_layer(rounds)
    else:
        metrics = end_to_end(rounds, first)
    for problem in problems:
        print("BENCHMARK PROBLEM: %s" % problem, file=sys.stderr)
    environment = next((outcome.environment for outcome in outcomes
                        if outcome.environment), {
                            key: "?" for key in ("tier", "telemetry", "dmi",
                                                 "quantum", "parallel")})
    print_report(args.workload, WORKLOADS[args.workload][0], rounds,
                 environment, cleared)
    for name, (value, unit) in metrics.items():
        print("  %-40s %.6g %s" % (name, value, unit))
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
