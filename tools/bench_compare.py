#!/usr/bin/env python3
"""Gate the placement kernel's perf trajectory against a committed baseline.

Compares the ``speedup_vs_reference`` rows of a fresh ``BENCH_microbench.json``
(schema ``nubb.microbench.v1``, see bench/README.md) against
``bench/baseline.json`` and fails when any row regressed by more than the
allowed fraction.

Speedup rows are ratios of two runs on the *same* machine and toolchain, so
they cancel most host variation — absolute balls/second numbers from shared CI
runners are far too noisy to gate on, the ratios are not. The default
tolerance (25%, overridable per baseline file or ``--max-regression``) is
deliberately loose for the residual noise of shared runners; it catches
"the kernel lost half its speedup" regressions, not single-digit drift.

Usage:
  bench_compare.py FRESH BASELINE             # gate (exit 1 on regression)
  bench_compare.py FRESH BASELINE --update    # rewrite BASELINE from FRESH

Refreshing the baseline after intentional kernel work:
  ./build/bench/microbench --reps 5 --quiet --out build/BENCH_microbench.json
  python3 tools/bench_compare.py build/BENCH_microbench.json bench/baseline.json --update
"""

import argparse
import json
import sys

DEFAULT_MAX_REGRESSION = 0.25
BASELINE_SCHEMA = "nubb.bench_baseline.v1"

# Every impl tag microbench (and the serve harnesses) may emit; documented in
# bench/README.md. An unknown tag means a new benchmark row was added without
# teaching the gate (and the docs) about it — fail loudly rather than let the
# row silently fall out of every speedup pairing.
KNOWN_IMPLS = frozenset(
    {
        "reference",
        "kernel",
        "kernel_v2",
        "kernel_v2_nopf",
        "kernel_v2_simd",
        "primitive",
    }
)


def load_speedups(path):
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    unknown = {
        str(b.get("impl"))
        for b in data.get("benchmarks", [])
        if b.get("impl") not in KNOWN_IMPLS
    }
    if unknown:
        raise SystemExit(
            f"{path}: unknown impl tag(s) {sorted(unknown)}; known tags are "
            f"{sorted(KNOWN_IMPLS)} — add the new tag to KNOWN_IMPLS in "
            "tools/bench_compare.py and document it in bench/README.md"
        )
    rows = data.get("speedup_vs_reference")
    if not isinstance(rows, dict) or not rows:
        raise SystemExit(f"{path}: no speedup_vs_reference rows found")
    return data, rows


def update_baseline(baseline_path, fresh_rows, max_regression, note):
    baseline = {
        "schema": BASELINE_SCHEMA,
        "note": note,
        "max_regression": max_regression,
        "speedup_vs_reference": {k: round(v, 3) for k, v in sorted(fresh_rows.items())},
    }
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"[bench_compare] wrote {baseline_path} ({len(fresh_rows)} rows)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="fresh BENCH_microbench.json")
    parser.add_argument("baseline", help="committed bench/baseline.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        help="allowed fractional drop per speedup row "
        f"(default: baseline file's value, else {DEFAULT_MAX_REGRESSION})",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the fresh results instead of gating",
    )
    parser.add_argument(
        "--expect-absent",
        action="append",
        default=[],
        metavar="SUBSTR",
        help="baseline rows whose key contains SUBSTR may be missing from the "
        "fresh results without failing the gate (repeatable; used for opt-in "
        "rows like the 10M/100M-bin sweep that PR CI does not run)",
    )
    parser.add_argument(
        "--note",
        default="refreshed via tools/bench_compare.py --update",
        help="provenance note stored in the baseline on --update",
    )
    args = parser.parse_args()

    _, fresh = load_speedups(args.fresh)

    if args.update:
        tolerance = args.max_regression
        if tolerance is None:
            # Preserve a customised tolerance across refreshes; only a brand
            # new baseline falls back to the default.
            try:
                with open(args.baseline, encoding="utf-8") as f:
                    tolerance = json.load(f).get("max_regression")
            except (OSError, ValueError):
                tolerance = None
        if tolerance is None:
            tolerance = DEFAULT_MAX_REGRESSION
        update_baseline(args.baseline, fresh, tolerance, args.note)
        return 0

    baseline_data, baseline = load_speedups(args.baseline)
    tolerance = args.max_regression
    if tolerance is None:
        tolerance = baseline_data.get("max_regression", DEFAULT_MAX_REGRESSION)

    failures = []
    print(f"[bench_compare] tolerance: {tolerance:.0%} per speedup row")
    print(f"{'row':40s} {'baseline':>9s} {'fresh':>9s} {'delta':>8s}")
    for key in sorted(baseline):
        base = baseline[key]
        if key not in fresh:
            if any(sub in key for sub in args.expect_absent):
                print(f"{key:40s} {base:9.2f} {'SKIPPED':>9s}")
                continue
            print(f"{key:40s} {base:9.2f} {'MISSING':>9s}")
            failures.append(f"{key}: row missing from fresh results")
            continue
        now = fresh[key]
        delta = (now - base) / base
        flag = ""
        if now < base * (1.0 - tolerance):
            flag = "  << REGRESSION"
            failures.append(
                f"{key}: {now:.2f}x vs baseline {base:.2f}x "
                f"({delta:+.0%} exceeds -{tolerance:.0%})"
            )
        print(f"{key:40s} {base:9.2f} {now:9.2f} {delta:+8.0%}{flag}")
    for key in sorted(set(fresh) - set(baseline)):
        print(f"{key:40s} {'(new)':>9s} {fresh[key]:9.2f}")

    if failures:
        print("\n[bench_compare] FAIL:")
        for f in failures:
            print(f"  - {f}")
        print(
            "If the regression is intentional (e.g. a reference got faster), refresh "
            "the baseline: python3 tools/bench_compare.py FRESH bench/baseline.json --update"
        )
        return 1
    print("\n[bench_compare] OK: no speedup row regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
