#!/usr/bin/env python3
"""Generic perf-regression gate over BENCH_*.json artifacts.

Instead of one hardcoded comparison, this diffs any bench JSON — google-benchmark format ("benchmarks" list)
or the repo JsonEmitter format ("records" list) — against a committed
baseline with per-metric tolerances, and/or checks within-file pair
ratios (e.g. packed vs legacy GEMM). It is the single CI perf gate.

Modes (combinable):

  Baseline diff      --baseline FILE --metric NAME:DIR:TOL ...
      For every entry present in both files, require
        DIR == higher:  current >= TOL * baseline
        DIR == lower:   current <= TOL * baseline
      e.g. --metric GFLOPS:higher:0.80 tolerates a 20% regression.
      --require-coverage additionally fails if a baseline entry is
      missing from the current file (optionally restricted by
      --coverage-filter REGEX).

  Pair ratio         --pair CUR_PREFIX=REF_PREFIX --pair-metric M
                     --min-pair-ratio R
      Pairs entries whose names share a suffix after one of the two
      prefixes and requires the median CUR/REF ratio of metric M to be
      >= R. Machine-independent (both sides run on the same host), so
      this is the strong gate; absolute baseline diffs across different
      runners should use loose tolerances. --min-each-pair-ratio R2
      additionally bounds every individual pair (no outlier escape).

Entries are keyed by benchmark name (google-benchmark) or by the record
"kind" plus the values of --key fields (JsonEmitter). Metrics are any
numeric field of the entry. Entries whose "pmu" / "pmu_available" field
is falsy are skipped for counter-derived metrics (ipc, llc_miss_rate,
measured_gbps, cycles_per_iter, frac_peak_measured) — a PMU-less runner
must not fail the gate for reporting no hardware counters.

  check_perf_regression.py current.json --baseline BENCH_kernels.json \\
      --metric GFLOPS:higher:0.5 \\
      --pair BM_GemmPacked=BM_GemmLegacy --pair-metric GFLOPS \\
      --min-pair-ratio 1.2

  check_perf_regression.py --self-test
"""

import argparse
import json
import re
import statistics
import sys

PMU_ONLY_METRICS = {
    "ipc", "llc_miss_rate", "measured_gbps", "cycles_per_iter",
    "frac_peak_measured", "cycles", "instructions", "llc_loads",
    "llc_misses", "stalled_cycles_backend", "branch_misses",
}


def median_of_runs(runs):
    """One {metric: value} from repetitions of a benchmark: the median of
    each metric over the runs that report it."""
    metrics = {}
    for key in {k for run in runs for k in run}:
        metrics[key] = statistics.median(run[key] for run in runs
                                         if key in run)
    return metrics


def load_entries(doc, key_fields):
    """Map {entry_key: {metric: value}} from either bench JSON format.
    Repetitions of one google-benchmark name (--benchmark_repetitions)
    collapse to the median of each metric."""
    entries = {}
    if "benchmarks" in doc:  # google-benchmark
        runs = {}
        for entry in doc.get("benchmarks", []):
            if entry.get("run_type") == "aggregate":
                continue
            name = entry.get("name")
            if not name:
                continue
            runs.setdefault(name, []).append({
                k: float(v)
                for k, v in entry.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            })
        entries = {name: median_of_runs(r) for name, r in runs.items()}
    elif "records" in doc:  # repo JsonEmitter
        for rec in doc.get("records", []):
            kind = rec.get("kind", "record")
            ident = [str(kind)]
            for field in key_fields:
                if field in rec:
                    ident.append(f"{field}={rec[field]}")
            key = "/".join(ident)
            metrics = {
                k: float(v)
                for k, v in rec.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }
            if isinstance(rec.get("pmu_available"), bool):
                metrics["pmu"] = 1.0 if rec["pmu_available"] else 0.0
            entries[key] = metrics
    else:
        raise ValueError("unrecognized bench JSON: expected a "
                         "'benchmarks' or 'records' list")
    return entries


def load_file(path, key_fields):
    with open(path) as f:
        return load_entries(json.load(f), key_fields)


def has_pmu(metrics):
    return metrics.get("pmu", 0.0) > 0.0


def is_pmu_metric(name):
    """Counter-derived metric, possibly phase-prefixed (gemm_ipc)."""
    return (name in PMU_ONLY_METRICS
            or any(name.endswith("_" + m) for m in PMU_ONLY_METRICS))


def parse_metric_rule(spec):
    parts = spec.split(":")
    if len(parts) != 3 or parts[1] not in ("higher", "lower"):
        raise ValueError(
            f"bad --metric '{spec}': expected NAME:higher|lower:TOL")
    return parts[0], parts[1], float(parts[2])


def check_baseline(current, baseline, rules, require_coverage,
                   coverage_filter, out):
    failures = []
    if require_coverage:
        pat = re.compile(coverage_filter) if coverage_filter else None
        for key in sorted(baseline):
            if pat is not None and not pat.search(key):
                continue
            if key not in current:
                failures.append(f"coverage: baseline entry '{key}' missing "
                                "from current file")
    for name, direction, tol in rules:
        compared = 0
        for key in sorted(set(current) & set(baseline)):
            cur, base = current[key], baseline[key]
            if name not in cur or name not in base:
                continue
            if is_pmu_metric(name) and not (has_pmu(cur) and has_pmu(base)):
                continue
            c, b = cur[name], base[name]
            compared += 1
            bound = tol * b
            ok = c >= bound if direction == "higher" else c <= bound
            mark = "ok" if ok else "FAIL"
            out(f"  {mark:<4} {key:<40} {name}: current {c:.4g} vs "
                f"{direction} bound {bound:.4g} (baseline {b:.4g})")
            if not ok:
                failures.append(
                    f"{key}: {name} {c:.4g} violates {direction} bound "
                    f"{bound:.4g} (= {tol} * baseline {b:.4g})")
        out(f"baseline metric '{name}' ({direction}, tol {tol}): "
            f"{compared} entries compared")
        if compared == 0:
            failures.append(f"metric '{name}': nothing compared — wrong "
                            "metric name or no shared entries")
    return failures


def check_pairs(current, cur_prefix, ref_prefix, metric, min_ratio, out,
                min_each_ratio=None):
    pairs, ratios = [], []
    for key, metrics in current.items():
        if not key.startswith(cur_prefix) or metric not in metrics:
            continue
        suffix = key[len(cur_prefix):]
        ref_key = ref_prefix + suffix
        ref = current.get(ref_key)
        if ref is None or metric not in ref:
            continue
        if is_pmu_metric(metric) and not (has_pmu(metrics)
                                          and has_pmu(ref)):
            continue
        denom = ref[metric]
        ratio = metrics[metric] / denom if denom > 0 else float("inf")
        pairs.append((suffix, metrics[metric], denom, ratio))
        ratios.append(ratio)
    if not ratios:
        return [f"pair {cur_prefix}={ref_prefix}: no pairs found for "
                f"metric '{metric}'"]
    for suffix, c, r, ratio in sorted(pairs):
        out(f"  {cur_prefix}{suffix:<24} {c:>10.2f} vs "
            f"{ref_prefix}{suffix:<24} {r:>10.2f} -> {ratio:.2f}x")
    median = statistics.median(ratios)
    out(f"pair {cur_prefix}/{ref_prefix} median {metric} ratio over "
        f"{len(ratios)} pairs: {median:.2f}x (floor {min_ratio:.2f}x)")
    failures = []
    if median < min_ratio:
        failures.append(f"pair {cur_prefix}={ref_prefix}: median {metric} "
                        f"ratio {median:.2f}x below floor {min_ratio:.2f}x")
    if min_each_ratio is not None:
        # Per-pair floor: no individual shape may fall below it (the median
        # gate tolerates outliers; this one doesn't).
        for suffix, c, r, ratio in sorted(pairs):
            if ratio < min_each_ratio:
                failures.append(
                    f"pair {cur_prefix}={ref_prefix}: entry '{suffix}' "
                    f"{metric} ratio {ratio:.2f}x below per-pair floor "
                    f"{min_each_ratio:.2f}x")
    return failures


def self_test():
    """Exercise both formats and every pass/fail path on synthetic docs."""
    quiet = lambda *_: None  # noqa: E731

    gbench = {
        "context": {"host_name": "ci"},
        "benchmarks": [
            {"name": "BM_FooPacked/64", "GFLOPS": 40.0, "pmu": 1.0,
             "ipc": 2.0},
            {"name": "BM_FooLegacy/64", "GFLOPS": 20.0, "pmu": 1.0,
             "ipc": 1.0},
            {"name": "BM_FooPacked/128", "GFLOPS": 60.0, "pmu": 0.0},
            {"name": "BM_FooLegacy/128", "GFLOPS": 20.0, "pmu": 0.0},
            {"name": "BM_FooPacked/64_mean", "run_type": "aggregate",
             "GFLOPS": 1.0},
        ],
    }
    cur = load_entries(gbench, [])
    assert "BM_FooPacked/64_mean" not in cur, "aggregates must be skipped"

    # Repetitions of one name keep the per-metric median, not the last
    # run: GFLOPS (10, 20, 30) -> 20, so a later outlier cannot decide.
    reps = {"benchmarks": [
        {"name": "BM_Rep/1", "run_type": "iteration", "GFLOPS": 10.0,
         "repetition_index": 0},
        {"name": "BM_Rep/1", "run_type": "iteration", "GFLOPS": 20.0,
         "repetition_index": 1},
        {"name": "BM_Rep/1", "run_type": "iteration", "GFLOPS": 30.0,
         "repetition_index": 2},
        {"name": "BM_Rep/1_median", "run_type": "aggregate",
         "GFLOPS": 99.0},
    ]}
    rep = load_entries(reps, [])
    assert sorted(rep) == ["BM_Rep/1"], sorted(rep)
    assert rep["BM_Rep/1"]["GFLOPS"] == 20.0, rep

    # Pair mode: median ratio (2.0, 3.0) = 2.5 -> passes 2.0, fails 3.0.
    assert check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "GFLOPS",
                       2.0, quiet) == []
    assert check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "GFLOPS",
                       3.0, quiet) != []
    # PMU-only metric pairs only where both sides have pmu=1 (one pair,
    # ratio 2.0).
    assert check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "ipc",
                       1.5, quiet) == []
    # Unknown metric -> explicit failure, not a silent pass.
    assert check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "nope",
                       1.0, quiet) != []
    # Per-pair floor: ratios are (2.0, 3.0) — every pair clears 1.5, but
    # the /64 pair falls below 2.5 even though the median (2.5) passes.
    assert check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "GFLOPS",
                       2.0, quiet, min_each_ratio=1.5) == []
    fails = check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "GFLOPS",
                        2.5, quiet, min_each_ratio=2.5)
    assert len(fails) == 1 and "per-pair floor" in fails[0], fails

    # Baseline diff: 10% regression passes tol 0.8, fails tol 0.95.
    base = {k: dict(v) for k, v in cur.items()}
    regressed = {k: dict(v) for k, v in cur.items()}
    for v in regressed.values():
        v["GFLOPS"] *= 0.9
    rule = [("GFLOPS", "higher", 0.8)]
    assert check_baseline(regressed, base, rule, False, None, quiet) == []
    rule = [("GFLOPS", "higher", 0.95)]
    assert check_baseline(regressed, base, rule, False, None, quiet) != []
    # "lower" direction: a latency-like metric that grew 10% fails 1.05.
    for v in regressed.values():
        v["latency"] = 1.1
    for v in base.values():
        v["latency"] = 1.0
    assert check_baseline(regressed, base, [("latency", "lower", 1.2)],
                          False, None, quiet) == []
    assert check_baseline(regressed, base, [("latency", "lower", 1.05)],
                          False, None, quiet) != []
    # Coverage: drop an entry, restrict with a filter.
    partial = {k: v for k, v in regressed.items()
               if k != "BM_FooPacked/128"}
    rule = [("GFLOPS", "higher", 0.8)]
    assert check_baseline(partial, base, rule, True, None, quiet) != []
    assert check_baseline(partial, base, rule, True, "/64$", quiet) == []
    # PMU-only metrics skip pmu=0 entries instead of failing them.
    assert check_baseline(regressed, base, [("ipc", "higher", 0.5)],
                          False, None, quiet) == []

    # JsonEmitter format with key fields.
    emitter = {
        "artifact": "pipeline overlap",
        "machine": {"hostname": "ci"},
        "records": [
            {"kind": "overlap", "threads": 1, "async": False,
             "iters_per_second": 10.0},
            {"kind": "overlap", "threads": 1, "async": True,
             "iters_per_second": 12.0},
            {"kind": "overlap_perf", "threads": 1, "async": True,
             "pmu_available": False, "gemm_ipc": 0.0},
        ],
    }
    recs = load_entries(emitter, ["threads", "async"])
    assert "overlap/threads=1/async=True" in recs, sorted(recs)
    base_recs = {k: dict(v) for k, v in recs.items()}
    rule = [("iters_per_second", "higher", 0.5)]
    assert check_baseline(recs, base_recs, rule, True, None, quiet) == []
    # pmu_available=False maps to pmu=0 -> gemm_ipc must be skipped even
    # though the stored value is 0.
    assert check_baseline(recs, base_recs, [("gemm_ipc", "higher", 1.0)],
                          False, "overlap_perf", quiet) != []  # nothing
    # compared -> explicit failure (guards against typo'd metric names)

    bad = {"neither": []}
    try:
        load_entries(bad, [])
        raise AssertionError("unrecognized format must raise")
    except ValueError:
        pass

    print("self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("current", nargs="?", help="bench JSON to check")
    ap.add_argument("--baseline", help="committed baseline bench JSON")
    ap.add_argument("--metric", action="append", default=[],
                    metavar="NAME:DIR:TOL",
                    help="baseline rule, DIR in {higher,lower}; e.g. "
                         "GFLOPS:higher:0.5")
    ap.add_argument("--key", default="threads,async",
                    help="comma-separated identity fields for JsonEmitter "
                         "records (default: threads,async)")
    ap.add_argument("--require-coverage", action="store_true",
                    help="fail if a baseline entry is missing from current")
    ap.add_argument("--coverage-filter", metavar="REGEX",
                    help="restrict --require-coverage to matching entries")
    ap.add_argument("--pair", metavar="CUR_PREFIX=REF_PREFIX",
                    help="within-file pair-ratio check, e.g. "
                         "BM_GemmPacked=BM_GemmLegacy")
    ap.add_argument("--pair-metric", default="GFLOPS")
    ap.add_argument("--min-pair-ratio", type=float, default=1.2)
    ap.add_argument("--min-each-pair-ratio", type=float, default=None,
                    help="additionally require EVERY pair ratio >= this "
                         "(the median gate tolerates outliers; this "
                         "doesn't)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in unit tests and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.current:
        ap.error("a bench JSON path is required (or --self-test)")
    if not args.baseline and not args.pair:
        ap.error("nothing to check: give --baseline and/or --pair")

    key_fields = [k for k in args.key.split(",") if k]
    current = load_file(args.current, key_fields)
    failures = []

    if args.pair:
        if "=" not in args.pair:
            ap.error("--pair expects CUR_PREFIX=REF_PREFIX")
        cur_prefix, ref_prefix = args.pair.split("=", 1)
        failures += check_pairs(current, cur_prefix, ref_prefix,
                                args.pair_metric, args.min_pair_ratio,
                                print, args.min_each_pair_ratio)

    if args.baseline:
        rules = [parse_metric_rule(s) for s in args.metric]
        if not rules and not args.require_coverage:
            ap.error("--baseline needs --metric rules and/or "
                     "--require-coverage")
        baseline = load_file(args.baseline, key_fields)
        failures += check_baseline(current, baseline, rules,
                                   args.require_coverage,
                                   args.coverage_filter, print)

    if failures:
        print(f"\nFAIL ({len(failures)}):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
