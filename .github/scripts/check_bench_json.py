#!/usr/bin/env python3
"""Validate BENCH_*.json emissions from the bench harness.

Stdlib only. Three checks, composable on one command line:

  --schema FILE            FILE is a JSON array of records, each matching
                           {bench, metric, value, unit, threads, backend,
                           git_sha} with the right types (value finite
                           number, threads positive int, backend a
                           non-empty kernel-backend name).
  --overhead OFF ON        compare GEMM throughput between a metrics-off
                           run (OFF) and a metrics-on run (ON); fail if
                           the instrumented run is more than --overhead-pct
                           slower (default 10% -- CI machines are noisy;
                           the 2% budget is asserted locally on quiet
                           hardware, see DESIGN.md).
  --baseline BASE CUR      sanity-check a current emission against a
                           committed baseline: same bench name and no
                           metric names lost (values may drift).
  --infer-gate FILE        FILE is a BENCH_micro_infer.json emission; fail
                           unless KV-cached decode beats the uncached
                           reference by --min-kv-speedup (default 2x) at
                           T=128 and the no-grad forward beats the
                           recording forward by --min-nograd-speedup
                           (default 1.05x — the SIMD kernels shrank the
                           GEMM share of both routes, compressing the
                           grad/no-grad gap from the 1.3x of the scalar
                           era) at the largest batch, and the cross-
                           session batched decode delivers at least
                           --min-batched-decode-speedup (default 2x) more
                           tokens/sec at the largest swept batch than
                           batch 1 at the longest stream. CI applies
                           the strict defaults to the committed baseline
                           (a full-length run) and relaxed floors to the
                           smoke emission, which measures single
                           iterations.
  --kernel-gate NN         NN is a BENCH_micro_nn.json emission; fail unless
                           the SIMD GEMM beats the scalar oracle by
                           --min-simd-speedup (default 3x) at the largest
                           shared size. When BM_MatmulSimd reports
                           backend_id == 0 (scalar -- no SIMD on this
                           machine) the floor is skipped.
  --data-gate FILE         FILE is a BENCH_micro_data.json emission; fail
                           unless the streaming loader at its largest
                           swept prefetch depth delivers at least
                           --min-tokens-per-sec (default 2e6) and keeps
                           the consumer-visible stall share of wall time
                           under --max-stall-fraction (default 0.25), and
                           the mmap shard scan reports positive
                           throughput. CI applies the strict defaults to
                           the committed full-length baseline and relaxed
                           floors to the smoke emission (tiny corpus,
                           single iterations).
  --serve-gate FILE        FILE is a BENCH_load_serve.json emission; fail
                           unless every bitwise spot check passed
                           (bitwise_mismatches == 0), no HTTP request
                           failed, at least --min-sessions sessions were
                           driven (default 1000), scheduler throughput
                           reached --min-rps (default 500), and
                           latency.p99_ms stayed under --max-p99-ms
                           (default 2000), and (when the emission carries
                           the counter) the degradation controller stayed
                           idle (serve.degrade.transitions == 0 -- the
                           baseline load shape must not trip the overload
                           ladder). --max-kv-bytes (default 0 = off)
                           additionally caps the run's serve.kv.peak_bytes
                           record: peak paged-KV residency must stay under
                           the dense sessions x max_seq_len reservation
                           the block pool replaced. CI applies the strict
                           defaults to the committed baseline (a full
                           1000-session run) and relaxed floors to the
                           smoke emission.
  --chaos-gate FILE        FILE is a BENCH_chaos_serve.json emission from
                           bench/chaos_serve (load shape under layered
                           fault injection); fail unless every failure was
                           typed (untyped_failures == 0), every configured
                           fault point actually fired
                           (silent_fault_points == 0), fault-free replies
                           stayed bitwise-correct (bitwise_mismatches ==
                           0), liveness held (healthz_failures == 0), the
                           end-to-end error rate stayed under
                           --max-error-rate (default 0.5 -- rejects are
                           the resilience design working, so the ceiling
                           only catches collapse), and the final drain
                           finished within --max-drain-ms (default 10000).

Exit 0 if every requested check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

REQUIRED_FIELDS = (
    "bench",
    "metric",
    "value",
    "unit",
    "threads",
    "backend",
    "git_sha",
)


def fail(msg: str) -> None:
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: cannot parse: {exc}")
    if not isinstance(doc, list) or not doc:
        fail(f"{path}: expected a non-empty JSON array of records")
    return doc


def check_schema(path: str) -> None:
    for i, rec in enumerate(load(path)):
        where = f"{path}[{i}]"
        if not isinstance(rec, dict):
            fail(f"{where}: record is not an object")
        missing = [f for f in REQUIRED_FIELDS if f not in rec]
        if missing:
            fail(f"{where}: missing fields {missing}")
        if not isinstance(rec["bench"], str) or not rec["bench"]:
            fail(f"{where}: 'bench' must be a non-empty string")
        if not isinstance(rec["metric"], str) or not rec["metric"]:
            fail(f"{where}: 'metric' must be a non-empty string")
        if not isinstance(rec["value"], (int, float)) or isinstance(
            rec["value"], bool
        ):
            fail(f"{where}: 'value' must be a number, got {rec['value']!r}")
        if not math.isfinite(rec["value"]):
            fail(f"{where}: 'value' must be finite, got {rec['value']!r}")
        if not isinstance(rec["unit"], str):
            fail(f"{where}: 'unit' must be a string")
        if not isinstance(rec["threads"], int) or isinstance(
            rec["threads"], bool
        ) or rec["threads"] < 1:
            fail(f"{where}: 'threads' must be a positive integer")
        if not isinstance(rec["backend"], str) or not rec["backend"]:
            fail(f"{where}: 'backend' must be a non-empty string")
        if not isinstance(rec["git_sha"], str) or not rec["git_sha"]:
            fail(f"{where}: 'git_sha' must be a non-empty string")
    print(f"check_bench_json: OK schema {path}")


def gemm_throughput(path: str) -> float:
    """Best GFLOPS counter among the matmul benchmarks in an emission."""
    best = 0.0
    for rec in load(path):
        if "Matmul" in rec["bench"] and rec["metric"] == "GFLOPS":
            best = max(best, float(rec["value"]))
    if best <= 0.0:
        fail(f"{path}: no Matmul GFLOPS records found for overhead check")
    return best


def check_overhead(off_path: str, on_path: str, pct: float) -> None:
    off = gemm_throughput(off_path)
    on = gemm_throughput(on_path)
    drop = 100.0 * (off - on) / off
    print(
        f"check_bench_json: GEMM {off:.2f} GFLOPS off / {on:.2f} GFLOPS on "
        f"-> {drop:+.2f}% drop (budget {pct:.1f}%)"
    )
    if drop > pct:
        fail(
            f"metrics-on GEMM is {drop:.2f}% slower than metrics-off "
            f"(budget {pct:.1f}%)"
        )


def check_baseline(base_path: str, cur_path: str) -> None:
    base = load(base_path)
    cur = load(cur_path)
    base_bench = {rec["bench"] for rec in base}
    cur_bench = {rec["bench"] for rec in cur}
    if base_bench != cur_bench:
        fail(
            f"bench name drift: baseline {sorted(base_bench)} vs "
            f"current {sorted(cur_bench)}"
        )
    base_metrics = {rec["metric"] for rec in base}
    cur_metrics = {rec["metric"] for rec in cur}
    lost = sorted(base_metrics - cur_metrics)
    if lost:
        fail(f"metrics present in {base_path} but missing from {cur_path}: {lost}")
    print(f"check_bench_json: OK baseline {base_path} vs {cur_path}")


def real_time(records: list[dict], path: str, bench: str) -> float:
    for rec in records:
        if rec["bench"] == bench and rec["metric"] == "real_time":
            value = float(rec["value"])
            if value <= 0.0:
                fail(f"{path}: non-positive real_time for {bench}")
            return value
    fail(f"{path}: no real_time record for {bench}")
    raise AssertionError("unreachable")


def check_infer_gate(
    path: str, min_kv: float, min_nograd: float, min_batched: float
) -> None:
    records = load(path)
    cached = real_time(records, path, "BM_DecodeCached/128")
    uncached = real_time(records, path, "BM_DecodeUncached/128")
    kv_speedup = uncached / cached
    print(
        f"check_bench_json: KV decode T=128 {uncached:.0f} ns uncached / "
        f"{cached:.0f} ns cached -> {kv_speedup:.2f}x "
        f"(floor {min_kv:.2f}x)"
    )
    if kv_speedup < min_kv:
        fail(
            f"KV-cached decode speedup {kv_speedup:.2f}x is below the "
            f"{min_kv:.2f}x floor at T=128"
        )

    # Largest batch shared by both forward sweeps: per-op graph/allocation
    # overhead is amortized identically at every batch, so the biggest one
    # is the most deterministic measurement of the fused fast path.
    grad_args = {
        rec["bench"].rsplit("/", 1)[1]
        for rec in records
        if rec["bench"].startswith("BM_ForwardGrad/")
    }
    nograd_args = {
        rec["bench"].rsplit("/", 1)[1]
        for rec in records
        if rec["bench"].startswith("BM_ForwardNoGrad/")
    }
    shared = sorted(grad_args & nograd_args, key=int)
    if not shared:
        fail(f"{path}: no shared BM_ForwardGrad/BM_ForwardNoGrad batch args")
    arg = shared[-1]
    grad = real_time(records, path, f"BM_ForwardGrad/{arg}")
    nograd = real_time(records, path, f"BM_ForwardNoGrad/{arg}")
    speedup = grad / nograd
    print(
        f"check_bench_json: forward batch={arg} {grad:.0f} ns grad / "
        f"{nograd:.0f} ns no-grad -> {speedup:.2f}x "
        f"(floor {min_nograd:.2f}x)"
    )
    if speedup < min_nograd:
        fail(
            f"no-grad forward speedup {speedup:.2f}x is below the "
            f"{min_nograd:.2f}x floor at batch {arg}"
        )

    # Cross-session batched decode: per-token throughput at the largest
    # batch vs batch 1, at the longest shared stream length. real_time is
    # per iteration (batch x T tokens), so the per-token speedup is
    # batch * rt(1) / rt(batch).
    batched = {}
    for rec in records:
        if rec["bench"].startswith("BM_DecodeBatched/") and (
            rec["metric"] == "real_time"
        ):
            b, t = rec["bench"].split("/")[1:3]
            batched[(int(b), int(t))] = float(rec["value"])
    if not batched:
        fail(f"{path}: no BM_DecodeBatched records")
    t_max = max(t for (b, t) in batched if (1, t) in batched)
    b_max = max(b for (b, t) in batched if t == t_max)
    if b_max <= 1:
        fail(f"{path}: BM_DecodeBatched swept no batch above 1 at T={t_max}")
    batched_speedup = b_max * batched[(1, t_max)] / batched[(b_max, t_max)]
    print(
        f"check_bench_json: batched decode B={b_max} T={t_max} "
        f"{batched[(1, t_max)]:.0f} ns serial / "
        f"{batched[(b_max, t_max)]:.0f} ns batched -> "
        f"{batched_speedup:.2f}x per-token (floor {min_batched:.2f}x)"
    )
    if batched_speedup < min_batched:
        fail(
            f"batched decode per-token speedup {batched_speedup:.2f}x is "
            f"below the {min_batched:.2f}x floor at B={b_max} T={t_max}"
        )


def bench_counter(
    records: list[dict], path: str, bench: str, metric: str
) -> float:
    for rec in records:
        if rec["bench"] == bench and rec["metric"] == metric:
            return float(rec["value"])
    fail(f"{path}: no '{metric}' record for {bench}")
    raise AssertionError("unreachable")


def shared_args(records: list[dict], path: str, a: str, b: str) -> list[str]:
    """Args (the '/N' suffixes) present for both bench-name prefixes."""
    args_a = {
        rec["bench"].rsplit("/", 1)[1]
        for rec in records
        if rec["bench"].startswith(a + "/")
    }
    args_b = {
        rec["bench"].rsplit("/", 1)[1]
        for rec in records
        if rec["bench"].startswith(b + "/")
    }
    shared = sorted(args_a & args_b, key=int)
    if not shared:
        fail(f"{path}: no shared {a}/{b} args")
    return shared


def check_kernel_gate(nn_path: str, min_simd: float) -> None:
    nn = load(nn_path)
    arg = shared_args(nn, nn_path, "BM_MatmulScalar", "BM_MatmulSimd")[-1]
    scalar = bench_counter(nn, nn_path, f"BM_MatmulScalar/{arg}", "GFLOPS")
    simd = bench_counter(nn, nn_path, f"BM_MatmulSimd/{arg}", "GFLOPS")
    simd_backend = bench_counter(
        nn, nn_path, f"BM_MatmulSimd/{arg}", "backend_id"
    )
    if scalar <= 0.0:
        fail(f"{nn_path}: non-positive scalar GFLOPS at n={arg}")
    if simd_backend == 0:
        print(
            "check_bench_json: BM_MatmulSimd ran on the scalar backend "
            "(no SIMD on this machine); skipping the speedup floor"
        )
        return
    speedup = simd / scalar
    print(
        f"check_bench_json: GEMM n={arg} {scalar:.2f} GFLOPS scalar / "
        f"{simd:.2f} GFLOPS simd -> {speedup:.2f}x "
        f"(floor {min_simd:.2f}x)"
    )
    if speedup < min_simd:
        fail(
            f"SIMD GEMM speedup {speedup:.2f}x is below the "
            f"{min_simd:.2f}x floor at n={arg}"
        )


def check_data_gate(
    path: str, min_tokens_per_sec: float, max_stall: float
) -> None:
    records = load(path)
    depths = {
        rec["bench"].rsplit("/", 1)[1]
        for rec in records
        if rec["bench"].startswith("BM_LoaderStream/")
    }
    if not depths:
        fail(f"{path}: no BM_LoaderStream records")
    # Gate at the largest swept depth: that is the configuration the
    # trainer runs with (NETFM_DATA_PREFETCH), and the one where a broken
    # producer shows up as stalls instead of hiding behind sync reads.
    arg = sorted(depths, key=int)[-1]
    bench = f"BM_LoaderStream/{arg}"
    depth = bench_counter(records, path, bench, "prefetch_depth")
    tokens = bench_counter(records, path, bench, "tokens_per_second")
    stall = bench_counter(records, path, bench, "stall_fraction")
    mmap_bps = bench_counter(
        records, path, "BM_ShardReadMmap", "bytes_per_second"
    )
    print(
        f"check_bench_json: loader depth={depth:.0f} "
        f"{tokens / 1e6:.2f} Mtok/s, stall {stall:.3f} of wall time; "
        f"mmap scan {mmap_bps / 1e6:.0f} MB/s "
        f"(floors: >={min_tokens_per_sec / 1e6:.2f} Mtok/s, "
        f"stall <={max_stall:.2f})"
    )
    if depth < 1:
        fail(f"{path}: largest swept prefetch depth is {depth:.0f} (< 1)")
    if tokens < min_tokens_per_sec:
        fail(
            f"prefetch throughput {tokens / 1e6:.2f} Mtok/s is below the "
            f"{min_tokens_per_sec / 1e6:.2f} Mtok/s floor at depth {arg}"
        )
    if stall > max_stall:
        fail(
            f"stall fraction {stall:.3f} exceeds the {max_stall:.2f} cap "
            f"at depth {arg}"
        )
    if mmap_bps <= 0.0:
        fail(f"{path}: BM_ShardReadMmap reports non-positive throughput")


def metric_value(records: list[dict], path: str, metric: str) -> float:
    for rec in records:
        if rec["metric"] == metric:
            return float(rec["value"])
    fail(f"{path}: no '{metric}' record")
    raise AssertionError("unreachable")


def optional_metric(records: list[dict], metric: str) -> float | None:
    for rec in records:
        if rec["metric"] == metric:
            return float(rec["value"])
    return None


def check_serve_gate(
    path: str, min_sessions: float, min_rps: float, max_p99_ms: float,
    max_kv_bytes: float
) -> None:
    records = load(path)
    mismatches = metric_value(records, path, "bitwise_mismatches")
    if mismatches != 0:
        fail(f"{path}: {mismatches:.0f} served replies diverged bitwise")
    http_failures = metric_value(records, path, "http.failures")
    if http_failures != 0:
        fail(f"{path}: {http_failures:.0f} HTTP requests failed")
    sessions = metric_value(records, path, "sessions")
    rps = metric_value(records, path, "throughput_rps")
    p99 = metric_value(records, path, "latency.p99_ms")
    print(
        f"check_bench_json: serve {sessions:.0f} sessions, {rps:.0f} req/s, "
        f"p99 {p99:.2f} ms (floors: >={min_sessions:.0f} sessions, "
        f">={min_rps:.0f} req/s, <={max_p99_ms:.0f} ms)"
    )
    if sessions < min_sessions:
        fail(f"only {sessions:.0f} sessions driven (floor {min_sessions:.0f})")
    if rps < min_rps:
        fail(f"throughput {rps:.0f} req/s is below the {min_rps:.0f} floor")
    if p99 > max_p99_ms:
        fail(f"p99 latency {p99:.2f} ms exceeds the {max_p99_ms:.0f} ms cap")
    # The baseline load shape must not trip the overload ladder: a run
    # where the controller moved is measuring degraded service, not the
    # serving fast path. Older emissions predate the counter; skip then.
    transitions = optional_metric(records, "serve.degrade.transitions")
    if transitions is not None and transitions != 0:
        fail(
            f"{path}: degradation ladder moved {transitions:.0f} times "
            "during the baseline load shape (expected an idle controller)"
        )
    # Paged-KV memory ceiling: peak resident KV across the run must stay
    # under the dense sessions x max_seq_len reservation the block pool
    # replaced. Only enforced when the caller passes a ceiling; the metric
    # must then exist — a missing record means the bench regressed.
    if max_kv_bytes > 0:
        peak = optional_metric(records, "serve.kv.peak_bytes")
        if peak is None:
            fail(
                f"{path}: --max-kv-bytes given but no serve.kv.peak_bytes "
                "record in the emission"
            )
        print(
            f"check_bench_json: serve peak KV {peak / 1e6:.2f} MB "
            f"(ceiling {max_kv_bytes / 1e6:.2f} MB)"
        )
        if peak > max_kv_bytes:
            fail(
                f"{path}: peak KV bytes {peak:.0f} exceed the "
                f"{max_kv_bytes:.0f} ceiling"
            )


def check_chaos_gate(path: str, max_error_rate: float, max_drain_ms: float) -> None:
    records = load(path)
    untyped = metric_value(records, path, "untyped_failures")
    silent = metric_value(records, path, "silent_fault_points")
    mismatches = metric_value(records, path, "bitwise_mismatches")
    healthz = metric_value(records, path, "healthz_failures")
    error_rate = metric_value(records, path, "error_rate")
    drain_ms = metric_value(records, path, "drain_ms")
    requests = metric_value(records, path, "requests")
    completed = metric_value(records, path, "completed")
    print(
        f"check_bench_json: chaos {requests:.0f} requests, "
        f"{completed:.0f} ok, error rate {error_rate:.3f} "
        f"(cap {max_error_rate:.2f}), drain {drain_ms:.0f} ms "
        f"(cap {max_drain_ms:.0f} ms)"
    )
    if untyped != 0:
        fail(
            f"{path}: {untyped:.0f} untyped failures -- every injected "
            "fault must surface as a typed reject or typed error"
        )
    if silent != 0:
        fail(
            f"{path}: {silent:.0f} configured fault points never fired; "
            "the soak did not exercise the failure modes it claims to"
        )
    if mismatches != 0:
        fail(f"{path}: {mismatches:.0f} fault-free replies diverged bitwise")
    if healthz != 0:
        fail(f"{path}: /healthz went down {healthz:.0f} times mid-soak")
    if error_rate > max_error_rate:
        fail(
            f"{path}: error rate {error_rate:.3f} exceeds the "
            f"{max_error_rate:.2f} collapse ceiling"
        )
    if drain_ms > max_drain_ms:
        fail(
            f"{path}: drain took {drain_ms:.0f} ms "
            f"(cap {max_drain_ms:.0f} ms)"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schema", action="append", default=[], metavar="FILE")
    parser.add_argument("--overhead", nargs=2, metavar=("OFF", "ON"))
    parser.add_argument("--overhead-pct", type=float, default=10.0)
    # action="append": the bench-smoke lane passes --baseline once per
    # emission; without append only the last pair was checked.
    parser.add_argument(
        "--baseline",
        nargs=2,
        action="append",
        default=[],
        metavar=("BASE", "CUR"),
    )
    parser.add_argument("--infer-gate", metavar="FILE")
    parser.add_argument("--min-kv-speedup", type=float, default=2.0)
    parser.add_argument("--min-nograd-speedup", type=float, default=1.05)
    parser.add_argument(
        "--min-batched-decode-speedup", type=float, default=2.0
    )
    parser.add_argument("--kernel-gate", metavar="NN")
    parser.add_argument("--min-simd-speedup", type=float, default=3.0)
    parser.add_argument("--serve-gate", metavar="FILE")
    parser.add_argument("--min-sessions", type=float, default=1000.0)
    parser.add_argument("--min-rps", type=float, default=500.0)
    parser.add_argument("--max-p99-ms", type=float, default=2000.0)
    parser.add_argument("--max-kv-bytes", type=float, default=0.0)
    parser.add_argument("--chaos-gate", metavar="FILE")
    parser.add_argument("--max-error-rate", type=float, default=0.5)
    parser.add_argument("--max-drain-ms", type=float, default=10000.0)
    parser.add_argument("--data-gate", metavar="FILE")
    parser.add_argument("--min-tokens-per-sec", type=float, default=2.0e6)
    parser.add_argument("--max-stall-fraction", type=float, default=0.25)
    args = parser.parse_args()

    if (
        not args.schema
        and not args.overhead
        and not args.baseline
        and not args.infer_gate
        and not args.kernel_gate
        and not args.serve_gate
        and not args.chaos_gate
        and not args.data_gate
    ):
        fail(
            "nothing to check (pass --schema/--overhead/--baseline/"
            "--infer-gate/--kernel-gate/--serve-gate/--chaos-gate/"
            "--data-gate)"
        )
    for path in args.schema:
        check_schema(path)
    if args.overhead:
        check_overhead(args.overhead[0], args.overhead[1], args.overhead_pct)
    for base, cur in args.baseline:
        check_baseline(base, cur)
    if args.infer_gate:
        check_infer_gate(
            args.infer_gate,
            args.min_kv_speedup,
            args.min_nograd_speedup,
            args.min_batched_decode_speedup,
        )
    if args.kernel_gate:
        check_kernel_gate(args.kernel_gate, args.min_simd_speedup)
    if args.serve_gate:
        check_serve_gate(
            args.serve_gate,
            args.min_sessions,
            args.min_rps,
            args.max_p99_ms,
            args.max_kv_bytes,
        )
    if args.chaos_gate:
        check_chaos_gate(
            args.chaos_gate, args.max_error_rate, args.max_drain_ms
        )
    if args.data_gate:
        check_data_gate(
            args.data_gate, args.min_tokens_per_sec, args.max_stall_fraction
        )
    print("check_bench_json: all checks passed")


if __name__ == "__main__":
    main()
