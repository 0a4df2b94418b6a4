#!/usr/bin/env python3
"""Serving latency/throughput benchmark harness.

Boots serve_cli on an ephemeral port, drives it with serve_load_cli, and
records client-side latency percentiles (p50/p99/p999), QPS, and shed rate
for each batch-window setting, plus the server's own drained stats. The
committed BENCH_serving.json is a sweep on the same synthetic graph the
tests use. It shows no trade-off: the 0 ms window (the default) beat 2 ms
and 8 ms on QPS (4469 vs 1161 and 408 req/s) and on p50/p99 (0.83/2.15 ms
vs 3.28/6.67 and 9.52/17.86 ms). Its closed-loop clients keep at most 4
requests in flight, far below max_batch, so a window never fills and its
whole length is added wait.

Usage:
  python3 scripts/bench_serving.py --build-dir build --out BENCH_serving.json
"""

import argparse
import datetime
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import tempfile
import time

DEFAULT_WINDOWS = ["0ms", "2ms", "8ms"]


def wait_for_file(path, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if os.path.exists(path) and os.path.getsize(path) > 0:
            return True
        time.sleep(0.05)
    return False


def run_one(build_dir, window, args, tmpdir):
    tag = window.replace(".", "p")
    port_file = os.path.join(tmpdir, f"port_{tag}")
    stats_file = os.path.join(tmpdir, f"server_stats_{tag}.json")
    load_file = os.path.join(tmpdir, f"load_{tag}.json")

    server_cmd = [
        os.path.join(build_dir, "examples", "serve_cli"),
        "--vertices", str(args.vertices),
        "--classes", "8",
        "--features", "32",
        "--degree", "8",
        "--hidden", "32",
        "--layers", "2",
        "--workers", str(args.workers),
        "--queue-capacity", str(args.queue_capacity),
        "--max-batch", str(args.max_batch),
        "--batch-window", window,
        "--deadline", "2s",
        "--port", "0",
        "--port-file", port_file,
        "--stats-out", stats_file,
    ]
    load_cmd = [
        os.path.join(build_dir, "examples", "serve_load_cli"),
        "--port-file", port_file,
        "--threads", str(args.threads),
        "--requests", str(args.requests),
        "--batch", "4",
        "--vertices", str(args.vertices),
        "--seed", "7",
        "--out", load_file,
    ]

    server = subprocess.Popen(server_cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
    try:
        if not wait_for_file(port_file):
            raise RuntimeError(f"server never wrote {port_file}")
        load = subprocess.run(load_cmd, capture_output=True, text=True,
                              timeout=600)
        if load.returncode != 0:
            raise RuntimeError(
                f"loadgen failed (rc={load.returncode}):\n{load.stdout}"
                f"\n{load.stderr}")
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            rc = server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            raise RuntimeError("server did not drain on SIGTERM")
    if rc != 0:
        raise RuntimeError(f"server exited {rc} after SIGTERM drain")

    with open(load_file) as f:
        client = json.load(f)
    server_stats = {}
    if os.path.exists(stats_file):
        with open(stats_file) as f:
            server_stats = json.load(f)

    return {
        "batch_window": window,
        "qps": client["qps"],
        "latency_ms_p50": client["latency_ms_p50"],
        "latency_ms_p99": client["latency_ms_p99"],
        "latency_ms_p999": client["latency_ms_p999"],
        "shed_rate": client["shed_rate"],
        "answered": client["answered"],
        "ok": client["ok"],
        "retries": client["retries"],
        "reconnects": client["reconnects"],
        "server": server_stats,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", default="BENCH_serving.json")
    ap.add_argument("--windows", nargs="+", default=DEFAULT_WINDOWS,
                    help="batch-window settings to sweep (duration strings)")
    ap.add_argument("--vertices", type=int, default=2000)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--queue-capacity", type=int, default=256)
    ap.add_argument("--max-batch", type=int, default=16)
    ap.add_argument("--threads", type=int, default=4,
                    help="load-generator client threads")
    ap.add_argument("--requests", type=int, default=400,
                    help="requests per client thread")
    args = ap.parse_args()

    if len(args.windows) < 3:
        ap.error("sweep at least 3 batch-window settings")

    runs = []
    with tempfile.TemporaryDirectory(prefix="gsgcn_bench_serving_") as tmp:
        for window in args.windows:
            print(f"[bench_serving] window={window} ...", flush=True)
            run = run_one(args.build_dir, window, args, tmp)
            print(f"[bench_serving]   qps={run['qps']:.0f} "
                  f"p50={run['latency_ms_p50']:.2f}ms "
                  f"p99={run['latency_ms_p99']:.2f}ms "
                  f"p999={run['latency_ms_p999']:.2f}ms "
                  f"shed_rate={run['shed_rate']:.4f}", flush=True)
            runs.append(run)

    doc = {
        "context": {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"),
            "hostname": platform.node(),
            "machine": platform.machine(),
            "num_cpus": os.cpu_count(),
            "workload": {
                "vertices": args.vertices,
                "workers": args.workers,
                "queue_capacity": args.queue_capacity,
                "max_batch": args.max_batch,
                "client_threads": args.threads,
                "requests_per_thread": args.requests,
                "roots_per_request": 4,
            },
        },
        "runs": runs,
    }
    pathlib.Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"[bench_serving] wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
