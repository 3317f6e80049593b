#!/usr/bin/env python3
"""Golden-summary test: the committed BENCH_<scenario>.json files are the
result oracle for the simulator.

Runs gtrix_campaign over the small builtin scenarios twice -- serial, and at
--shards=2 -- and requires every summary key except the host-layout and
wall-clock ones (threads, shards, wall_seconds) to equal the committed
BENCH_<scenario>.json exactly. A mismatch names the run, the scenario and
the key path. An engine change that alters any result, however slightly,
fails here; docs/performance.md ("One production path per layer") explains
how a deliberate result change is re-baselined.

Usage: tests/golden_summary_test.py GTRIX_CAMPAIGN_BINARY REPO_ROOT
"""
import json
import pathlib
import subprocess
import sys
import tempfile

SCENARIOS = (
    "quickstart-grid",
    "torus-smoke",
    "table1-comparison",
    "thm11-logd",
    "thm12-worstcase-faults",
    "thm13-random-faults",
    "thm16-stabilization",
    "fig5-jump-ablation",
    "cor15-slow-dynamics",
)

# Host layout and wall clock: documented as non-portable, never compared.
IGNORED_KEYS = ("threads", "shards", "wall_seconds")

# (label, extra flags). --threads=1 leaves the whole core budget to the
# shards, so the sharded run really runs sharded on any host with >= 2 cores.
RUNS = (
    ("serial", ("--threads=2", "--shards=1")),
    ("2 shards", ("--threads=1", "--shards=2")),
)


def diff(expected, actual, path=""):
    """Yields 'key: expected X, got Y' for every differing leaf."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else key
            if not path and key in IGNORED_KEYS:
                continue
            if key not in actual:
                yield f"{sub}: missing from the run's summary"
            elif key not in expected:
                yield f"{sub}: not in the committed file"
            else:
                yield from diff(expected[key], actual[key], sub)
    elif expected != actual or type(expected) is not type(actual):
        yield f"{path}: expected {expected!r}, got {actual!r}"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, root = sys.argv[1], pathlib.Path(sys.argv[2])
    failures = []
    with tempfile.TemporaryDirectory(prefix="gtrix-golden-") as tmp:
        for label, flags in RUNS:
            out = pathlib.Path(tmp) / label.replace(" ", "-")
            cmd = [binary, *SCENARIOS, f"--out={out}", "--quiet", *flags]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=500)
            if proc.returncode != 0:
                sys.exit(f"golden_summary_test: FAIL: {' '.join(cmd)} exited "
                         f"{proc.returncode}\n{proc.stderr}")
            for name in SCENARIOS:
                committed = json.loads((root / f"BENCH_{name}.json").read_text())
                summary = json.loads((out / f"{name}.summary.json").read_text())
                failures += [f"[{label}] {name}: {d}" for d in diff(committed, summary)]
    if failures:
        print("golden_summary_test: FAIL: summaries differ from the committed "
              "BENCH_*.json:", file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        sys.exit(1)
    print(f"golden_summary_test: OK: {len(SCENARIOS)} scenarios x {len(RUNS)} runs "
          "match the committed BENCH_*.json")


if __name__ == "__main__":
    main()
