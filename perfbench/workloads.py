"""The benchmark's workloads: set-up, one pass of operations, output checks.

Each operation returns a checker that the runner calls outside the timed
interval. An operation that raises has failed; a checker that raises
`WrongOutput` found an incorrect result. `--seed` orders the operations of
each pass; the instance sets are fixed ladders (see README.md for why).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import scenarios

REL_TOL = 1e-6
RESIDUAL_TOL = 1e-6
CITY_REL_TOL = 1e-9
TIME_LIMIT_S = 60.0
CLI_TIMEOUT_S = 120.0
HERE = Path(__file__).resolve().parent


class OpFailed(Exception):
    """The program did not produce a result (error, exit status, status)."""


class WrongOutput(Exception):
    """The program produced a result that fails the benchmark's check."""


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


class InProcess:
    """A workload that calls the library in this process."""

    artifact_bytes = 0

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.root, self.seed, self.smoke = root, seed, smoke
        self.tracer = None
        self.rng = random.Random(seed)

    def shuffled(self, ops: list) -> list:
        """A fresh order for every pass, so that no instance always follows
        the same neighbour and the seed does not fix one cache history."""
        self.rng.shuffle(ops)
        return ops

    def setup(self) -> None:
        if str(self.root / "src") not in sys.path:
            sys.path.insert(0, str(self.root / "src"))
        start = time.perf_counter()
        import transitopt
        self.import_span = (start, time.perf_counter())
        self.to = transitopt  # calls go through the package so spans see them

    def attach(self, tracer) -> None:
        self.tracer = tracer
        tracer.spans.append(["cli.import", *self.import_span, -1, -1])  # op -1: set-up
        tracer.install()

    def detach(self) -> None:
        self.tracer.uninstall()
        self.tracer = None

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class Corridor(InProcess):
    """The ROADMAP mid-size generator at its seed 7, transfers off and on.

    Instances of about a second each, so that a run repeats every one of
    them several times and the latency medians rest on many samples."""

    name = "corridor"
    POOL = [(3, False), (4, False), (3, True)]
    SMOKE_POOL = [(3, False)]

    def setup(self) -> None:
        super().setup()
        pool = self.SMOKE_POOL if self.smoke else self.POOL
        self.docs = [(f"n{n}-{'xfer' if tr else 'direct'}", scenarios.ladder_doc(n, 7, transfers=tr))
                     for n, tr in pool]

    def pass_ops(self):
        return self.shuffled([(label, lambda doc=doc: self._instance(doc))
                              for label, doc in self.docs])

    def _instance(self, doc):
        to = self.to
        scenario = to.load_scenario(doc)
        model = to.build_model(scenario)
        to.write_lp(model)
        result = to.solve(model, to.SolverConfig(time_limit_s=TIME_LIMIT_S))
        if result.status != "optimal":
            raise OpFailed(f"solver status {result.status}")
        plan, _ = to.decode_plan(model, result)
        flows = to.assign_flows(scenario, plan)
        metrics = to.compute_metrics(flows, scenario, plan)
        residuals = to.conservation_residuals(flows, scenario, plan)

        def check():
            if _rel_diff(metrics.objective, result.objective) > REL_TOL:
                raise WrongOutput(f"evaluator objective {metrics.objective} "
                                  f"vs solver {result.objective}")
            worst = max(residuals.values())
            if worst > RESIDUAL_TOL:
                raise WrongOutput(f"conservation residual {worst}")
        return check


class City(InProcess):
    """The acceptance-08 instance priced under its full-pattern plan; no solve."""

    name = "city"

    def setup(self) -> None:
        super().setup()
        key = "city_smoke" if self.smoke else "city"
        if self.smoke:
            self.doc = scenarios.ladder_doc(8, 7, transfers=True, symmetry=False,
                                            dwell_saving=0.0, pair_draws=80)
        else:
            self.doc = scenarios.city_doc()
        self.plan_doc = scenarios.full_pattern_plan_doc(self.doc)
        self.expected = json.loads((HERE / "expected.json").read_text())[key]
        self.lp_sha = None

    def pass_ops(self):
        return [("full-pattern", self._instance)]

    def _instance(self):
        to = self.to
        scenario = to.load_scenario(self.doc)
        model = to.build_model(scenario)
        to.model_stats(model)
        lp_sha = hashlib.sha256(to.write_lp(model).encode()).hexdigest()
        del model
        plan = to.load_plan(self.plan_doc, scenario)
        flows = to.assign_flows(scenario, plan)
        metrics = to.compute_metrics(flows, scenario, plan)
        residuals = to.conservation_residuals(flows, scenario, plan)

        def check():
            if self.lp_sha is None:
                self.lp_sha = lp_sha
            elif lp_sha != self.lp_sha:
                raise WrongOutput("LP text differs between operations of one run")
            if abs(metrics.objective - self.expected) > CITY_REL_TOL * abs(self.expected):
                raise WrongOutput(f"full-pattern objective {metrics.objective!r}, "
                                  f"expected {self.expected!r}")
            worst = max(residuals.values())
            if worst > RESIDUAL_TOL:
                raise WrongOutput(f"conservation residual {worst}")
        return check


class Certify(InProcess):
    """Oracle certification of desk toys, solved once during set-up.

    The toys are chosen for certifications of similar length (0.08-0.13 s)
    and set-up solves under 0.7 s: with no instance far slower than the
    rest, the median and tail do not jump from one instance's cluster of
    repeats to another's when a run fits one pass more or less."""

    name = "certify"
    POOL = [(5, False), (6, False), (7, False), (9, True), (12, True)]
    SMOKE_POOL = [(2, False)]

    def setup(self) -> None:
        super().setup()
        to = self.to
        self.cases = []
        for toy_seed, tr in self.SMOKE_POOL if self.smoke else self.POOL:
            scenario = to.load_scenario(scenarios.toy_doc(toy_seed, transfers=tr))
            result = to.solve(to.build_model(scenario), to.SolverConfig(time_limit_s=TIME_LIMIT_S))
            self.cases.append((f"toy{toy_seed}-{'xfer' if tr else 'direct'}", scenario, result))

    def pass_ops(self):
        return self.shuffled([(label, lambda s=s, r=r: self._certify(s, r))
                              for label, s, r in self.cases])

    def _certify(self, scenario, result):
        report = self.to.certify(scenario, result, cross_check="sample")

        def check():
            if report.verdict != "match":
                raise WrongOutput(f"oracle verdict {report.verdict}, delta {report.delta}")
        return check


class CliToy:
    """Fresh `transitopt` processes on desk toys, one command at a time."""

    name = "cli-toy"
    TOYS = [(1, False), (1, True)]
    SMOKE_TOYS = [(1, False)]
    COMMANDS = ("validate", "export", "solve", "evaluate", "compare", "oracle")

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.root, self.seed, self.smoke = root, seed, smoke
        self.work = root / ".perfbench_run" / f"cli-{os.getpid()}"
        self.tracer = None
        self.max_child_rss_kb = 0
        self.artifact_bytes = 0
        self.op_id = 0

    def setup(self) -> None:
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.toys = []
        for toy_seed, tr in self.SMOKE_TOYS if self.smoke else self.TOYS:
            label = f"toy{toy_seed}-{'xfer' if tr else 'direct'}"
            doc = scenarios.toy_doc(toy_seed, transfers=tr)
            scen = self.work / f"{label}.json"
            scen.write_text(json.dumps(doc))
            base = self.work / f"{label}-baseline.json"
            base.write_text(json.dumps(scenarios.full_pattern_plan_doc(doc)))
            self.toys.append((label, scen, base))
        random.Random(self.seed).shuffle(self.toys)
        self.solved: dict[str, tuple[Path, float]] = {}
        # Warm-up: fills the page cache and writes the package's bytecode.
        code, _, err = self._run(["validate", "--scenario", str(self.toys[0][1])], self.work / "warm")
        if code != 0:
            raise RuntimeError(f"warm-up validate failed: {err.strip()[-300:]}")

    def pass_ops(self):
        ops = []
        for label, scen, base in self.toys:
            for cmd in self.COMMANDS:
                ops.append((f"{label}:{cmd}",
                            lambda label=label, scen=scen, base=base, cmd=cmd:
                            self._command(label, scen, base, cmd)))
        return ops

    def _run(self, argv: list[str], out: Path) -> tuple[int, str, str]:
        """One CLI process; its own peak RSS comes from wait4."""
        out.mkdir(parents=True, exist_ok=True)
        if self.tracer is not None:
            trace_file = out / "spans.json"
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), str(trace_file), *argv]
        else:
            cmd = [sys.executable, "-m", "transitopt.cli", *argv]
        with open(out / "stdout.txt", "w+") as so, open(out / "stderr.txt", "w+") as se:
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=self.env, cwd=self.root)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            so.seek(0)
            se.seek(0)
            stdout, stderr = so.read(), se.read()
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        if self.tracer is not None and trace_file.is_file():
            self.tracer.absorb(trace_file, self.tracer.op)
            trace_file.unlink()
        return proc.returncode, stdout, stderr

    def _command(self, label: str, scen: Path, base: Path, cmd: str):
        self.op_id += 1
        out = self.work / f"op{self.op_id}-{label}-{cmd}"
        argv = [cmd, "--scenario", str(scen)]
        if cmd != "validate":
            argv += ["--out", str(out / "artifacts")]
        if cmd == "evaluate":
            if label not in self.solved:
                raise OpFailed("no plan.json: the solve of this toy failed")
            argv += ["--plan", str(self.solved[label][0])]
        if cmd == "compare":
            argv += ["--baseline", str(base)]
        code, stdout, stderr = self._run(argv, out)
        if code == 4:
            raise WrongOutput(f"oracle mismatch: {stdout.strip()}")
        if code != 0:
            if cmd == "solve":
                self.solved.pop(label, None)
            tail = stderr.strip().splitlines()[-1:] or [""]
            raise OpFailed(f"exit {code}: {tail[0][:200]}")
        artifacts = out / "artifacts"
        if cmd == "solve":
            self.solved[label] = (artifacts / "plan.json", _objective(stdout))

        def check():
            if cmd == "validate":
                return
            self.artifact_bytes += sum(p.stat().st_size for p in artifacts.iterdir())
            manifest = json.loads((artifacts / "manifest.json").read_text())
            for name, digest in manifest["artifacts"].items():
                if hashlib.sha256((artifacts / name).read_bytes()).hexdigest() != digest:
                    raise WrongOutput(f"{cmd}: checksum of {name} does not match the manifest")
            if cmd == "evaluate":
                solved = self.solved[label][1]
                if _rel_diff(_objective(stdout), solved) > REL_TOL:
                    raise WrongOutput(f"evaluate objective {_objective(stdout)} vs solve {solved}")
            if cmd == "compare":
                comparison = json.loads((artifacts / "comparison.json").read_text())
                delta = comparison["percent_change"]["objective"]
                if delta is None or delta > 1e-9:
                    raise WrongOutput(f"optimized plan {delta}% worse than the full-pattern baseline")
        return check

    def attach(self, tracer) -> None:
        self.tracer = tracer  # the launcher wraps the functions in each process

    def detach(self) -> None:
        self.tracer = None

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another process's work directory is still there


def _objective(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("objective "):
            return float(line.split()[1])
    raise WrongOutput(f"no objective line in {stdout.strip()[:200]!r}")


WORKLOADS = {cls.name: cls for cls in (CliToy, Corridor, City, Certify)}
