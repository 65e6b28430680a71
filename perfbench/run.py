"""Benchmark for the sosforge command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload par_bisim --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each command is an in-process call to
`sosforge.cli.main([...])` with stdout and stderr captured, issued only after
the previous one returned, and checked against the answer the benchmark knows
from how the input was built. A workload is a fixed command list of at least
MIN_COMMANDS commands made from the seed (a pass); passes repeat until
`--seconds` is used up and at least MIN_PASSES passes have run. On a shared
host the speed of the machine itself changes by up to 2x within seconds, so
a fixed reference computation (reference.py) is timed between commands and
each command's time is scaled to the nominal reference speed; the time
metrics take each command's median scaled time over the passes.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced and
traced passes and prints the per-layer metrics of the traced ones; the spans
of the first traced pass are written to perfbench/out/. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from reference import scale, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
CORPUS = SRC / "sosforge" / "corpus"
STATE_CAP_ENV = "SOSFORGE_STATE_CAP"

MIN_COMMANDS = 100   # per pass, so that ten lie beyond the 90th percentile
MIN_PASSES = 3
SETUP_RUNS = 9

# Runs in a fresh interpreter: import the command line and parse every
# bundled spec once. Interpreter start-up is not part of the figure. The
# reference runs three times before and after; the median of each three
# gives the machine's speed (the first run of a fresh process is slow).
SETUP_CODE = """
import time
from reference import time_reference
before = sorted(time_reference() for _ in range(3))[1]
t0 = time.perf_counter()
import sosforge.cli
from importlib import resources
from sosforge.parser import parse_spec
for f in sorted(resources.files("sosforge").joinpath("corpus").iterdir(), key=str):
    if f.name.endswith(".sos"):
        parse_spec(f.read_text(encoding="utf-8"))
took = time.perf_counter() - t0
after = sorted(time_reference() for _ in range(3))[1]
print(took, before, after)
"""


def declared_units() -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout() -> None:
    for path in (SRC / "sosforge" / "cli.py", TESTS / "termgen.py", CORPUS / "full.sos",
                 ROOT / "BENCHMARK.json"):
        if not path.is_file():
            die(f"{path.relative_to(ROOT)} is missing; run from a sosforge checkout")


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop(STATE_CAP_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def measure_setup() -> float:
    """Set-up seconds of one fresh process, at the nominal reference speed."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=program_env(),
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        die(f"set-up process failed:\n{proc.stderr}")
    took, before, after = map(float, proc.stdout.split())
    return scale(took, before, after)


def import_program() -> dict:
    sys.path[:0] = [str(SRC), str(TESTS)]
    import sosforge
    from sosforge import axioms, bisim, cli, commform, simulator, tss

    if not Path(sosforge.__file__).resolve().is_relative_to(SRC):
        die(f"imported sosforge from {sosforge.__file__}, not from {SRC}")
    return {"cli": cli, "bisim": bisim, "simulator": simulator, "axioms": axioms,
            "commform": commform, "tss": tss}


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)   # before each command, and after the last
    failed: int = 0
    out_bytes: int = 0
    nf_chars: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def scaled(self) -> list[float]:
        """Each command's time at the nominal reference speed."""
        return [scale(t, before, after)
                for t, before, after in zip(self.times, self.refs, self.refs[1:])]

    @property
    def wall(self) -> float:
        return sum(self.scaled)


def run_pass(main, workload, tracer=None) -> PassResult:
    """Issue every command of the workload once, in order."""
    from workloads import Ref

    res = PassResult()
    saved: dict[str, str] = {}
    for i, cmd in enumerate(workload.cmds):
        argv = [saved.get(a.key, "0") if isinstance(a, Ref) else a for a in cmd.argv]
        # Untimed: each command starts from a clean heap, as a fresh sosforge
        # process does, so no command pays for collecting an earlier one's
        # garbage and peak_rss_mb is set by the largest command alone.
        gc.collect()
        res.refs.append(time_reference())
        out, err = io.StringIO(), io.StringIO()
        code = None
        problem = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = tracer.root(i, main, argv) if tracer else main(argv)
            except Exception:
                problem = traceback.format_exc(limit=4)
            res.times.append(time.perf_counter() - t0)
        text = out.getvalue()
        res.out_bytes += len(text.encode("utf-8"))
        if argv[0] == "normalize":
            res.nf_chars += len(text.strip())
        if cmd.save:
            saved[cmd.save] = text.strip()
        if problem is None and not cmd.check(code, text, saved):
            problem = f"exit {code}, stdout {text[:300]!r}, stderr {err.getvalue()[:300]!r}"
        if problem is not None:
            res.failed += 1
            if len(res.problems) < 3:
                shown = [a if len(a) < 120 else a[:117] + "..." for a in argv]
                res.problems.append(f"command {i} {shown}: {problem}")
    res.refs.append(time_reference())
    return res


def should_stop(started: float, seconds: float, rounds: list[float], min_rounds: int) -> bool:
    """Stop when another round would overrun the time, once enough rounds ran."""
    elapsed = time.perf_counter() - started
    return len(rounds) >= min_rounds and elapsed + statistics.median(rounds) > seconds


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    check_checkout()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    os.environ.pop(STATE_CAP_ENV, None)
    units = declared_units()

    if not args.trace:
        measure_setup()   # warm-up: the first import may compile bytecode
    mods = import_program()
    cli_main = mods["cli"].main

    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        workload = WORKLOADS[args.workload](rng, CORPUS, work, False)
        if len(workload.cmds) < MIN_COMMANDS:
            die(f"{args.workload} has {len(workload.cmds)} commands a pass, fewer than {MIN_COMMANDS}")
        # What is alive now (modules, inputs) stays alive; leaving it out of
        # collections keeps the collection before each command cheap.
        gc.collect()
        gc.freeze()
        if args.trace:
            result = trace_run(mods, cli_main, workload, args, units)
        else:
            result = plain_run(cli_main, workload, args, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report(workload, passes: list[PassResult], note: str) -> tuple[int, int]:
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"perfbench: failed {problem}", file=sys.stderr)
    print(f"{workload.name}: {len(passes)} passes of {len(workload.cmds)} commands, "
          f"{attempted} attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:.4f}); {note}")
    return attempted, failed


def plain_run(cli_main, workload, args, units) -> dict:
    # Set-up processes run between passes, so that their samples spread over
    # the run like the passes do.
    passes: list[PassResult] = []
    setup: list[float] = []
    rounds: list[float] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup.append(measure_setup())
        passes.append(run_pass(cli_main, workload))
        rounds.append(time.perf_counter() - t0)
        if should_stop(started, args.seconds, rounds, MIN_PASSES):
            break
    while len(setup) < SETUP_RUNS:
        setup.append(measure_setup())
    per_cmd = [statistics.median(ts) for ts in zip(*(p.scaled for p in passes))]
    attempted, failed = report(
        workload, passes,
        f"wall_s, p50 and p90 over {len(per_cmd)} commands, each its median of "
        f"{len(passes)} passes; setup_s median of {len(setup)} fresh processes; "
        f"times at the nominal reference speed")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_cmd),
        "cmd_ms_p50": 1000.0 * statistics.median(per_cmd),
        "cmd_ms_p90": 1000.0 * percentile(per_cmd, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def trace_run(mods, cli_main, workload, args, units) -> dict:
    from spans import Tracer, layer_metrics, median_metrics

    tracer = Tracer(mods)
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict] = []
    spans_path = HERE / "out" / f"spans-{workload.name}.tsv"
    rounds: list[float] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(cli_main, workload))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(cli_main, workload, tracer))
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer, traced[-1].out_bytes, traced[-1].nf_chars))
        if len(traced) == 1:
            tracer.write(spans_path)
        tracer.reset()
        rounds.append(time.perf_counter() - t0)
        # Counts repeat exactly from pass to pass, so one traced pass will do
        # where a round (an untraced and a traced pass) takes most of the time.
        if should_stop(started, args.seconds, rounds, 1):
            break
    metrics = median_metrics(layers)
    # Over the whole run: a few passes a side leave this figure to host noise.
    metrics["trace.overhead_ratio"] = sum(p.wall for p in traced) / sum(p.wall for p in plain)
    attempted, failed = report(
        workload, plain + traced,
        f"{len(traced)} traced passes; spans of the first in {spans_path.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
