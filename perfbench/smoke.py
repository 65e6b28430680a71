"""Smoke test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload once at its smallest size, untraced and traced, and
expects no failures. Then adds one command whose expected answer is wrong on
purpose and expects the checker to count exactly that one as failed. Checks
that the per-layer metrics are the ones BENCHMARK.json declares, and that
the traced counts are the same in two processes with different
PYTHONHASHSEED. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import run
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Cmd, expect_exact

COUNT_UNITS = ("count", "B", "chars")


def fail(message: str) -> None:
    print(f"smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def smallest(name: str, work):
    return WORKLOADS[name](random.Random(f"{name}:0"), run.CORPUS, work, True)


def traced_pass(tracer: Tracer, cli_main, workload):
    tracer.reset()
    tracer.install()
    try:
        res = run.run_pass(cli_main, workload, tracer)
    finally:
        tracer.uninstall()
    return res, layer_metrics(tracer, res.out_bytes, res.nf_chars)


def counts_under_hash_seed(seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    proc = subprocess.run([sys.executable, __file__, "--counts"], cwd=run.ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"counting process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checks(mods, work) -> None:
    cli_main = mods["cli"].main
    tracer = Tracer(mods)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_layers = {m["name"] for m in declared["per_layer"]}
    for name in WORKLOADS:
        workload = smallest(name, work)
        plain = run.run_pass(cli_main, workload)
        traced, layers = traced_pass(tracer, cli_main, workload)
        for res in (plain, traced):
            if res.failed:
                fail(f"{name}: {res.failed} of {len(res.times)} failed: {res.problems}")
        layers["trace.overhead_ratio"] = traced.wall / plain.wall
        if set(layers) != want_layers:
            fail(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(layers) ^ want_layers)}")
        print(f"smoke: {name}: {len(plain.times)} commands ok, {layers['trace.spans']} spans")

    workload = smallest("par_bisim", work)
    spec = str(run.CORPUS / "bccsp_par.sos")
    workload.cmds.append(Cmd(["bisim", spec, "a . 0", "b . 0"], expect_exact(0, "true\n")))
    res = run.run_pass(cli_main, workload)
    if res.failed != 1:
        fail(f"a wrong expected answer gave {res.failed} failures, not 1")
    print(f"smoke: wrong expected answer counted: failed_ratio {res.failed / len(res.times):.3f}")

    first, second = counts_under_hash_seed("1"), counts_under_hash_seed("987654")
    if first != second:
        fail(f"counts depend on PYTHONHASHSEED: {first} vs {second}")
    print("smoke: counts repeat under two hash seeds")


def main() -> int:
    run.check_checkout()
    mods = run.import_program()
    work = run.HERE / "work" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if sys.argv[1:] == ["--counts"]:
            tracer = Tracer(mods)
            units = run.declared_units()
            counts = {}
            for name in WORKLOADS:
                _, layers = traced_pass(tracer, mods["cli"].main, smallest(name, work))
                counts[name] = {k: v for k, v in layers.items()
                                if units[k] in COUNT_UNITS}
            print(json.dumps(counts))
        else:
            checks(mods, work)
            print("smoke: ok")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
