"""hammerline benchmark: CLI workloads, each run in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hammerline checkout.  Runs go one after another
(a closed loop with one client), each a fresh single-threaded Python
process running one CLI command.  Every run's artifacts are checked
against closed-form references.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over the runs):
  setup_s      interpreter start until `import hammerline` and
               `load_scenario` finish
  command_s    wall time of hammerline.cli.main for the workload command
  peak_rss_mb  ru_maxrss of the run's process
--trace 1 makes one traced run (see tracer.py) and reports per-layer
metrics from it, plus the tracing overhead against untraced runs.

Exits 2 without a result when the checkout has no hammerline sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_SETUP_SAMPLES = 3   # from full runs and set-up-only runs together
SETUP_PROBE_S = 1.0     # time budgeted for one set-up-only run
TOTAL_LIMIT_S = 170.0   # a whole invocation ends within this
# single-threaded numerics and a fixed hash seed in every run
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


@dataclass(frozen=True)
class Workload:
    scenario: str
    cli_args: tuple
    check: object       # checks.<fn>(artifact dir, scenario) -> (problems, notes)


# why each was chosen: see BENCHMARK.json and README.md
WORKLOADS = {
    "demo-c2": Workload("scenarios/boosted_projectile_c2.json",
                        ("--command", "demo-projectile"), checks.demo_c2),
    "solve-gravity-m81": Workload("scenarios/gravity_projectile.json",
                                  ("--command", "solve", "--grid-size", "81"),
                                  checks.solve_gravity),
    "verify-gravity": Workload("scenarios/gravity_projectile.json",
                               ("--command", "verify"), checks.verify_gravity),
}

END_TO_END = {"setup_s": "s", "command_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Starts child runs one after another and checks each."""

    def __init__(self, name: str, seed: int, started: float):
        self.name = name
        self.work = WORKLOADS[name]
        self.seed = seed
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.base = OUT / name
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        with open(ROOT / self.work.scenario) as fh:
            self.scenario = json.load(fh)

    def run(self, label: str, *, setup_only=False, trace=False):
        """One child process.  Returns its figures, or None when it gave
        none; a run whose checks fail counts as failed but keeps them."""
        out = self.base / label
        out.mkdir()
        result_path = out / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--scenario", str(ROOT / self.work.scenario),
               "--result", str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", str(out / "spans.json")]
        cmd += ["--", "--scenario", str(ROOT / self.work.scenario),
                *self.work.cli_args, "--seed", str(self.seed),
                "--out", str(out / "artifacts")]
        remaining = TOTAL_LIMIT_S - (time.perf_counter() - self.started)
        self.attempted += 1
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            with open(out / "child.log", "w") as log:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      env=dict(os.environ, **CHILD_ENV),
                                      timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            return self._fail(label, "timed out")
        if proc.returncode != 0:
            return self._fail(label, f"exit code {proc.returncode}, "
                                     f"see {out / 'child.log'}")
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = result["setup_end"] - spawned
        if setup_only:
            return result
        try:
            problems, notes = self.work.check(out / "artifacts",
                                              self.scenario)
        except (OSError, ValueError, KeyError, TypeError) as e:
            return self._fail(label, f"artifacts unreadable: {e!r}")
        facts = " ".join(f"{k}={v}" for k, v in notes.items())
        if problems:
            self._fail(label, "; ".join(problems) + f" ({facts})")
        else:
            print(f"{self.name} {label}: command {result['command_s']:.3f} "
                  f"s, setup {result['setup_s']:.3f} s, rss "
                  f"{result['peak_rss_mb']:.1f} MB, checks ok, {facts}")
        return result

    def _fail(self, label: str, why: str):
        self.failed += 1
        print(f"{self.name} {label}: FAILED: {why}")
        return None

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Run the workload for about `seconds` and return its metrics.

    Full runs go first while a typical one still fits; set-up-only probes
    then fill the rest of the time, up to MIN_SETUP_SAMPLES set-up samples
    even past it."""
    traced = runner.run("traced", trace=True) if trace else None
    runs, durations = [], []
    while not durations or runner.elapsed() + statistics.median(durations) \
            <= seconds:
        t0 = runner.elapsed()
        result = runner.run(f"run-{len(durations)}")
        durations.append(runner.elapsed() - t0)
        if result:
            runs.append(result)
    setups = [r["setup_s"] for r in runs]
    probes = 0
    while len(setups) < MIN_SETUP_SAMPLES or runner.elapsed() \
            + SETUP_PROBE_S <= seconds:
        probe = runner.run(f"setup-{probes}", setup_only=True)
        probes += 1
        if probe is None:
            break
        setups.append(probe["setup_s"])
    if not runs or (trace and traced is None):
        return {}
    command = statistics.median(r["command_s"] for r in runs)
    print(f"{runner.name}: {len(runs)} run(s), {len(setups)} set-up "
          f"sample(s)")
    if trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in traced["layers"].items()}
        metrics["scenario.import_s"] = {"value": traced["import_s"],
                                        "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": traced["command_s"] / command, "unit": "ratio"}
        return metrics
    values = {"setup_s": statistics.median(setups), "command_s": command,
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "hammerline" / "cli.py").is_file():
        print(f"no hammerline sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile up front, so the first run of a fresh checkout does not
    # pay for it; a no-op when the caches are current
    compileall.compile_dir(SRC / "hammerline", quiet=1)
    runner = Runner(args.workload, args.seed, started)
    metrics = measure(runner, args.seconds, bool(args.trace))
    if not metrics:
        print("no usable run", file=sys.stderr)
        return 1
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
