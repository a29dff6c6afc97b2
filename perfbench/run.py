"""Benchmark of the transitopt pipeline, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: cli-toy, corridor, city,
certify (see README.md). The load is a closed loop: one client, each
operation starting when the previous one has ended. The timed phase repeats
whole passes over the workload's operations, in a new seeded order each
pass, while the next pass is expected to end within S seconds; at least one
pass always runs. Garbage is collected before each operation, outside its
timed interval.

The report goes to standard output; its last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run first runs the
untraced phase, then the same number of passes traced, and reports both
end-to-end tables and the difference as the tracing overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, WrongOutput  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150

# The shared host's speed drifts by ±20 % over minutes and moves all code on
# it together, though not all by the same share. A fixed pure-Python loop
# that shares nothing with the program is timed between operations; the
# normalized metrics are the measured seconds times REF_NOMINAL_S / (the
# run's median loop time), that is, seconds on a host where the loop takes
# REF_NOMINAL_S.
REF_ITERATIONS = 100_000
REF_NOMINAL_S = 0.010  # about the loop's median on the 2-core VM the bounds were set on
REF_LOOPS = 5          # loops per probe and per second since the last probe
REF_FIRST_LOOPS = 50   # loops of the probe that opens a phase
REF_EVERY_S = 1.0      # at most one probe per second of a timed phase

# Every end-to-end metric printed; BENCHMARK.json gates set-up time, memory
# and the normalized times, and the raw times are printed beside them.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("wall_norm_s", "s"),
    ("op_p50_norm_s", "s"),
    ("op_tail_norm_s", "s"),
    ("peak_rss_mb", "MiB"),
]
GATED = ["setup_s", "wall_norm_s", "op_p50_norm_s", "op_tail_norm_s", "peak_rss_mb"]


def reference_loop() -> float:
    """Seconds of a fixed pure-Python loop: how fast the host runs now."""
    t = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - t


class Phase:
    """Operations of one timed phase: (seconds, outcome, label, reason)."""

    def __init__(self):
        self.ops: list[tuple[float, str, str, str]] = []
        self.passes: list[float] = []
        self.refs: list[float] = []  # reference-loop times
        self.last_probe: float | None = None

    def probe(self, force: bool = False) -> None:
        """Time reference loops, as many as keep the samples spread evenly
        over the phase's time, however long its operations are."""
        if self.last_probe is None:
            loops = REF_FIRST_LOOPS
        else:
            since = time.perf_counter() - self.last_probe
            if since < REF_EVERY_S and not force:
                return
            loops = REF_LOOPS * max(1, round(since / REF_EVERY_S))
        self.refs += [reference_loop() for _ in range(loops)]
        self.last_probe = time.perf_counter()

    def count(self, outcome: str) -> int:
        return sum(1 for op in self.ops if op[1] == outcome)


def run_phase(workload, seconds: float, passes: int | None = None, tracer=None) -> Phase:
    phase = Phase()
    start = time.perf_counter()
    while True:
        pass_wall = 0.0
        for label, op in workload.pass_ops():
            if tracer is not None:
                tracer.op = len(phase.ops)
            outcome, reason, check = "ok", "", None
            gc.collect()  # every operation starts with no garbage of earlier ones
            phase.probe()
            t = time.perf_counter()
            try:
                check = op()
            except WrongOutput as exc:
                outcome, reason = "wrong", str(exc)
            except Exception as exc:  # every failure is counted; the run goes on
                outcome, reason = "failed", f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - t
            if check is not None:
                try:
                    check()
                except WrongOutput as exc:
                    outcome, reason = "wrong", str(exc)
            phase.ops.append((took, outcome, label, reason))
            pass_wall += took
        phase.passes.append(pass_wall)
        if (len(phase.passes) >= passes if passes is not None
                else time.perf_counter() - start + statistics.median(phase.passes) > seconds):
            gc.collect()
            phase.probe(force=True)  # the last operation is bracketed too
            return phase


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    That is the eleventh-largest sample. No percentile above the median has
    ten samples beyond it below 21 samples, so there the upper median is
    reported; the value then moves smoothly with the sample count instead
    of jumping to the maximum."""
    xs = sorted(values)
    n = len(xs)
    k = max(n - 11, n // 2)
    return xs[k], 100.0 * (k + 1) / n


def end_to_end(phase: Phase, setup: list[float], peak_rss_mb: float) -> tuple[dict, list[str]]:
    durations = [op[0] for op in phase.ops]
    n = len(durations)
    op_tail, pct = tail(durations)
    failed = n - phase.count("ok")
    ref = statistics.median(phase.refs)
    scale = REF_NOMINAL_S / ref
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(phase.passes),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": op_tail,
        "peak_rss_mb": peak_rss_mb,
    }
    for name in ("wall", "op_p50", "op_tail"):
        values[f"{name}_norm_s"] = values[f"{name}_s"] * scale
    notes = {
        "setup_s": f"median of {len(setup)} set-ups",
        "wall_s": f"median of {len(phase.passes)} passes",
        "op_p50_s": f"median of {n} operations",
        "op_tail_s": (f"p{pct:.1f} of {n} operations"
                      + ("" if n >= 21 else ", too few for a percentile above the median")),
        "peak_rss_mb": "ru_maxrss",
    }
    for name in ("wall", "op_p50", "op_tail"):
        notes[f"{name}_norm_s"] = f"{name}_s x {scale:.4f}"
    lines = [f"  {name:<14} {values[name]:>12.6g} {unit:<5} ({notes[name]})"
             for name, unit in END_TO_END]
    lines.append(f"  {'fail_share':<14} {failed / n:>12.6g} {'ratio':<5} "
                 f"({failed} failed of {n} attempted)")
    lines.append(f"  {'reference':<14} {ref:>12.6g} {'s':<5} "
                 f"(median of {len(phase.refs)} reference loops; nominal {REF_NOMINAL_S:g} s)")
    return values, lines


def setup_probes(args) -> list[float]:
    """Set-up times of fresh processes doing only this workload's set-up."""
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--probe"]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest instance set, for the smoke test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "transitopt" / "__init__.py").is_file():
        print(f"error: no transitopt sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    try:
        workload.setup()
        own_setup = time.perf_counter() - T0
        if args.probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0

        plain = run_phase(workload, args.seconds)
        plain_rss = workload.peak_rss_mb()
        traced = tracer = None
        if args.trace:
            from tracing import PER_LAYER, Tracer, per_layer
            tracer = Tracer()
            workload.artifact_bytes = 0
            workload.attach(tracer)
            traced = run_phase(workload, args.seconds, passes=len(plain.passes), tracer=tracer)
            workload.detach()
        setup = [own_setup] + setup_probes(args)
    finally:
        workload.close()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  operations: "
          + ", ".join(sorted({op[2] for op in plain.ops})))
    values, lines = end_to_end(plain, setup, plain_rss)
    print("end-to-end, untraced:")
    print("\n".join(lines))
    phases = [plain] if traced is None else [plain, traced]
    reasons = Counter(op[3] for ph in phases for op in ph.ops if op[1] != "ok")
    for reason, k in sorted(reasons.items()):
        print(f"  failure x{k}: {reason[:240]}")
    correct = not any(ph.count("wrong") for ph in phases)
    attempted = sum(len(ph.ops) for ph in phases)
    failed = sum(len(ph.ops) - ph.count("ok") for ph in phases)

    if traced is None:
        units = dict(END_TO_END)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in GATED}
    else:
        traced_values, lines = end_to_end(traced, setup, workload.peak_rss_mb())
        print("end-to-end, traced:")
        print("\n".join(lines))
        print("tracing overhead: " + ", ".join(
            f"{name} {100.0 * (traced_values[name] / values[name] - 1):+.1f}%"
            for name in ("wall_norm_s", "op_p50_norm_s")))
        trace_dir = ROOT / ".perfbench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.json")
        layer = per_layer(tracer, len(traced.ops), workload.artifact_bytes)
        units = dict(PER_LAYER)
        print(f"per layer (self time and counts per operation, {len(traced.ops)} operations):")
        for name, value in layer.items():
            print(f"  {name:<36} {value:>14.6g} {units[name]}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
