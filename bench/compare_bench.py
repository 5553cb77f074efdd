#!/usr/bin/env python3
"""Perf-regression gate: compare a fresh BENCH_*.json against a committed
baseline and fail on throughput regressions beyond a tolerance band.

Rows are matched by their identity fields (mode, wal_sync, policy, shards,
writers — whichever the bench emits) and compared on --metric (default
kops_per_sec). --direction lower-better flips the gate for latency metrics
like lat_p99_us: best-of-N keeps the minimum and a regression is the fresh
value rising above the band.

Raw throughput is machine-dependent, so CI passes --normalize: each side's
metric is divided by that side's geometric mean over all matched configs
before comparing. Normalized values measure the SHAPE of the performance
profile — how much grouping, a WAL sync mode, or sharding buy relative to
the other configs — which is stable across runner generations, while a
plain delta would fail every time GitHub swaps CPU models. The trade-off: a
change that slows every config by the same factor is invisible to the
normalized gate (it shows up in the nightly absolute trajectory instead).

Short smoke runs are noisy (interference only ever slows a run down), so
the fresh side accepts several files: each config keeps its best (max)
metric across them. CI runs the smoke bench twice and gates on the merge.

Exit codes: 0 = within tolerance, 1 = regression (or missing rows), 2 =
usage/format error.

To refresh the committed baseline after an intentional change, run the
bench with --smoke --json (ideally twice, merged best-of) and replace
bench/baseline/BENCH_write.json — or land the PR with [bench-skip] in the
commit message and refresh in a follow-up.
"""

import argparse
import json
import math
import sys

# Every config column any bench emits. A row's identity is the subset of
# these it carries, so a bench adding a new column (e.g. ablation_adaptive's
# `tuner`/`phase`) keeps distinct series distinct — before `tuner` was
# listed here, the best-of-N merge silently collapsed the static and
# adaptive rows into one config and dropped the rest (see --self-test).
IDENTITY_KEYS = ("mode", "wal_sync", "policy", "shards", "writers", "tuner",
                 "phase")


def load_rows(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        print(f"error: {path} has no rows", file=sys.stderr)
        sys.exit(2)
    return doc.get("bench", "?"), rows


def identity(row):
    return tuple((k, row[k]) for k in IDENTITY_KEYS if k in row)


def fmt_identity(ident):
    return " ".join(f"{k}={v}" for k, v in ident)


def geomean(values):
    positive = [v for v in values if v > 0]
    if not positive:
        return 1.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def self_test():
    """Invariants of the identity/merge logic, run in CI before any gate.

    The one that bit us: rows that differ only in a column NOT listed in
    IDENTITY_KEYS share an identity, so best-of-N keeps a single row and
    the others vanish — which reads as 'missing baseline config' at best
    and a silently wrong comparison at worst. Any new config column a
    bench emits must therefore appear in IDENTITY_KEYS.
    """
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    # Rows differing only in `tuner` or `phase` must stay distinct series.
    rows = [
        {"tuner": "static-leveled", "phase": 0, "policy": "VT-Level-Full",
         "shards": 2, "writers": 1, "kops_per_sec": 100.0},
        {"tuner": "adaptive", "phase": 0, "policy": "VT-Level-Full",
         "shards": 2, "writers": 1, "kops_per_sec": 90.0},
        {"tuner": "adaptive", "phase": 1, "policy": "VT-Level-Full",
         "shards": 2, "writers": 1, "kops_per_sec": 80.0},
    ]
    check("distinct identities for tuner/phase columns",
          len({identity(r) for r in rows}) == 3)

    # Best-of-N across two files must keep every series and the max metric.
    merged = {}
    for row in rows + [dict(rows[1], kops_per_sec=95.0)]:
        ident = identity(row)
        if ident not in merged or row["kops_per_sec"] > \
                merged[ident]["kops_per_sec"]:
            merged[ident] = row
    check("best-of-N keeps all series", len(merged) == 3)
    check("best-of-N keeps max metric",
          merged[identity(rows[1])]["kops_per_sec"] == 95.0)

    # Rows without the new columns (older benches) are unaffected.
    old = {"policy": "vertical", "shards": 1, "writers": 4}
    check("legacy rows ignore absent keys",
          identity(old) == (("policy", "vertical"), ("shards", 1),
                            ("writers", 4)))

    if failures:
        for name in failures:
            print(f"self-test FAILED: {name}", file=sys.stderr)
        sys.exit(1)
    print("self-test OK")
    sys.exit(0)


def main():
    parser = argparse.ArgumentParser(
        description="Compare bench JSON against a committed baseline.")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("fresh", nargs="*",
                        help="One or more runs of the same bench; each "
                             "config keeps its best metric across files.")
    parser.add_argument("--self-test", action="store_true",
                        help="Run the identity/merge invariant checks and "
                             "exit (no files needed).")
    parser.add_argument("--metric", default="kops_per_sec")
    parser.add_argument("--direction", default="higher-better",
                        choices=("higher-better", "lower-better"),
                        help="Whether a larger metric is an improvement "
                             "(throughput) or a regression (latency).")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="Allowed relative regression (0.25 = -25%%).")
    parser.add_argument("--normalize", action="store_true",
                        help="Compare each side's metric relative to its "
                             "geometric mean over matched configs "
                             "(machine-independent).")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.baseline is None or not args.fresh:
        parser.error("baseline and at least one fresh file are required")

    base_name, base_rows = load_rows(args.baseline)
    fresh_rows = []
    for path in args.fresh:
        fresh_name, rows = load_rows(path)
        if base_name != fresh_name:
            print(f"error: comparing different benches "
                  f"({base_name} vs {fresh_name})", file=sys.stderr)
            sys.exit(2)
        fresh_rows.extend(rows)
    # Best-of-N: keep each config's best observation — the fastest
    # (higher-better) or the quietest tail (lower-better). Interference
    # only ever makes a run worse, so "best" is the least-noisy sample
    # either way.
    lower_better = args.direction == "lower-better"
    merged = {}
    for row in fresh_rows:
        ident = identity(row)
        if ident not in merged:
            merged[ident] = row
            continue
        new, old = row.get(args.metric, 0), merged[ident].get(args.metric, 0)
        if (new < old) if lower_better else (new > old):
            merged[ident] = row

    # Match configs, then normalize both sides by their own geometric mean
    # over the MATCHED set (so a missing config cannot skew the reference).
    matched = []
    missing = []
    for base_row in base_rows:
        ident = identity(base_row)
        fresh_row = merged.get(ident)
        if fresh_row is None:
            missing.append(ident)
            continue
        matched.append((ident, base_row.get(args.metric, 0),
                        fresh_row.get(args.metric, 0)))
    base_norm = fresh_norm = 1.0
    if args.normalize and matched:
        base_norm = geomean([b for _, b, _ in matched])
        fresh_norm = geomean([f for _, _, f in matched])

    regressions = []
    improved = []
    print(f"# {base_name}: {args.metric} ({args.direction})"
          f"{' (normalized by geomean)' if args.normalize else ''}, "
          f"tolerance {args.tolerance:.0%}")
    for ident, base_raw, fresh_raw in matched:
        if base_raw <= 0:
            continue
        base_value = base_raw / base_norm
        fresh_value = fresh_raw / fresh_norm
        delta = (fresh_value - base_value) / base_value
        # Signed so that negative = regressed, positive = improved,
        # regardless of direction.
        signed = -delta if lower_better else delta
        marker = " "
        if signed < -args.tolerance:
            regressions.append((ident, delta))
            marker = "!"
        elif signed > args.tolerance:
            improved.append((ident, delta))
            marker = "+"
        print(f"{marker} {fmt_identity(ident):55s} "
              f"base={base_value:10.3f} fresh={fresh_value:10.3f} "
              f"delta={delta:+7.1%}")

    # Informational amplification report: write/read/space amp per config
    # when both sides carry the keys. Amp is a property of the workload and
    # the growth policy, not the machine, so drifts here are meaningful —
    # but they are never gated (older baselines predate the keys, and an
    # intentional policy change legitimately moves them).
    amp_keys = ("write_amp", "read_amp", "space_amp")
    amp_lines = []
    for base_row in base_rows:
        fresh_row = merged.get(identity(base_row))
        if fresh_row is None:
            continue
        pairs = [(k, base_row[k], fresh_row[k]) for k in amp_keys
                 if k in base_row and k in fresh_row]
        if not pairs:
            continue
        cells = "  ".join(f"{k}={b:.3f}->{f:.3f}" for k, b, f in pairs)
        amp_lines.append(f"  {fmt_identity(identity(base_row)):55s} {cells}")
    if amp_lines:
        print("\n# amplification (informational, not gated)")
        for line in amp_lines:
            print(line)

    if missing:
        print(f"\nFAIL: {len(missing)} baseline config(s) missing from the "
              f"fresh run:")
        for ident in missing:
            print(f"  {fmt_identity(ident)}")
        sys.exit(1)
    if regressions:
        print(f"\nFAIL: {len(regressions)} config(s) regressed more than "
              f"{args.tolerance:.0%}:")
        for ident, delta in regressions:
            print(f"  {fmt_identity(ident)}: {delta:+.1%}")
        print("(intentional? refresh bench/baseline/ or commit with "
              "[bench-skip])")
        sys.exit(1)
    if improved:
        print(f"\nnote: {len(improved)} config(s) improved beyond the band; "
              f"consider refreshing the committed baseline.")
    print("OK: no regression beyond tolerance.")
    sys.exit(0)


if __name__ == "__main__":
    main()
