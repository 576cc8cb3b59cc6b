#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of streamrel-server.

    python3 perfbench/run.py --workload firehose|fanout|report \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the engine, the RelWithDebInfo streamrel-server, the load generator
and the traced replay from this checkout into .bench_build/perfbench, then
runs the load generator (see load.cc). With --trace 1 it also runs the
traced replay (replay.cc) on the same seed and reports the per-layer
metrics instead of the end-to-end ones. Prints a table, then one JSON line:
{"correct", "attempted", "failed", "metrics"}. README.md explains the
workloads and which layer metric should move which end-to-end metric.
"""

import argparse
import json
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("firehose", "fanout", "report")

# Gated metrics, in BENCHMARK.json's order.
END_TO_END = ("setup_s", "server_cpu_us_per_krow", "ingest_ack_p50_us",
              "fresh_p50_us", "peak_rss_mb")
# A run must end within 180 s of its start (after any build).
RUN_BUDGET_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no engine sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                    *targets], check=True, stdout=sys.stderr)


def run_child(cmd, deadline):
    """Runs one benchmark program; returns its JSON result line."""
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=max(1.0, deadline - time.monotonic())).stdout
    return json.loads(out.strip().splitlines()[-1])


def load_run(args, seconds, deadline):
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    return run_child([str(BUILD / "perfbench_load"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(seconds),
                      "--server", str(BUILD / "streamrel" / "streamrel-server"),
                      "--workdir", str(work)],
                     deadline)


def replay_run(args, seconds, deadline):
    return run_child([str(BUILD / "perfbench_replay"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(seconds)], deadline)


def per_layer(load, replay):
    """Per-layer metrics: server counters from the end-to-end run, spans
    from the traced replay, and the share of server CPU no span covers."""
    layers = dict(load["layers"])
    layers.update(replay["layers"])
    for name in ("report_p50_us", "topn_p50_us"):
        layers[name] = load["metrics"].get(name, {"value": 0.0, "unit": "us"})
    cpu_per_krow = load["metrics"]["server_cpu_us_per_krow"]["value"]
    traced_per_krow = replay["extra"]["traced_us"] / (replay["extra"]["rows"] / 1000)
    layers["trace.unattributed_pct"] = {
        "value": 100.0 * (cpu_per_krow - traced_per_krow) / cpu_per_krow,
        "unit": "%"}
    return layers


def print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        samples = f"  n={m['samples']}" if "samples" in m else ""
        print(f"  {name:34s} {m['value']:14.3f} {m['unit']}{samples}")


def selftest():
    build(["perfbench_selftest"])
    return subprocess.run([str(BUILD / "perfbench_selftest")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None or args.seconds < 1 or args.seed < 0:
        parser.error("--workload is required; --seconds must be >= 1")

    build(["perfbench_load", "perfbench_replay", "streamrel-server"])
    deadline = time.monotonic() + RUN_BUDGET_S
    # A traced run splits its time between the end-to-end run (for the
    # server counters) and the replay, so it lasts as long as an untraced one.
    seconds = max(1, args.seconds // 2) if args.trace else args.seconds
    load = load_run(args, seconds, deadline)
    print_table(f"{args.workload} seed={args.seed} seconds={seconds}: "
                "end-to-end", load["metrics"])
    print_table("tails (recorded when >= 10 samples lie beyond them)",
                load["tails"])
    if args.trace:
        replay = replay_run(args, seconds, deadline)
        metrics = per_layer(load, replay)
        print_table("per layer", metrics)
        print("layer shares of traced time: " + ", ".join(
            f"{k[6:]}={v:.3f}" for k, v in replay["extra"].items()
            if k.startswith("share_")))
    else:
        metrics = {name: load["metrics"][name] for name in END_TO_END}
    result = {
        "correct": load["failed"] == 0,
        "attempted": load["attempted"],
        "failed": load["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError, KeyError) as e:
        log(f"benchmark failed: {e}")
        sys.exit(1)
