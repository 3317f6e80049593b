#!/usr/bin/env python3
"""Malformed-input test: a bad scenario file or flag exits 2 and names it.

Writes malformed scenario documents to a temp dir and runs
`gtrix_campaign FILE --dry-run` on each; one "file" is a directory, which
opens but cannot be read. Every run must exit 2 with stderr starting with
the file's path and naming the fault. The runs are held to the address
space of `ulimit -v 2000000`: an oversized sweep must be refused before it
allocates, never grow until the host runs out of memory.

A second table runs `gtrix_campaign` with malformed flags (a non-numeric
or partly numeric value, a repeated flag, a bad boolean, an unknown
recording mode, the removed `--recording-window`). Each must exit 2 with a
stderr line that names the flag.

Sanitizer builds skip the address-space limit: their shadow memory alone
reserves far more than 2 GB of address space.

Usage: tests/malformed_scenario_test.py GTRIX_CAMPAIGN_BINARY
"""
import json
import pathlib
import resource
import subprocess
import sys
import tempfile

ADDRESS_SPACE_LIMIT = 2_000_000 * 1024  # ulimit -v 2000000 (KiB)


def scenario(config=None, sweep=None):
    doc = {"name": "malformed",
           "config": {"columns": 8, "layers": 6, "pulses": 8, **(config or {})}}
    if sweep is not None:
        doc["sweep"] = sweep
    return doc


# name -> (document, text stderr must contain after "<path>: "). A string
# document is written verbatim; None makes the path a directory.
CASES = {
    # A read failure is not a syntax error on the empty text; an empty
    # file is.
    "directory": (None, "cannot read file"),
    "empty-file": ("", "line 1, column 1: unexpected end of input"),
    # Spellings the scenario format no longer accepts.
    "cycle-reach": (
        scenario({"base_graph": "cycle", "cycle_reach": 2}),
        "$.config.cycle_reach: unknown key 'cycle_reach'"),
    "int-delay-split": (
        scenario({"delay_model": "column-split", "delay_split_column": 4}),
        "$.config.delay_split_column: expected \"center\""),
    "recording-windowed": (
        scenario({"recording": {"kind": "windowed", "window": 16}}),
        "$.config.recording: unknown recording mode 'windowed' (valid: full, streaming)"),
    "unknown-key": (
        scenario({"colums": 8}),
        "$.config.colums: unknown key 'colums'"),
    # The streaming recording window is gone, as a parameter and as an axis.
    "recording-window-param": (
        scenario({"recording": {"kind": "streaming", "window": 16}}),
        "$.config.recording: unknown parameter 'window' for recording mode 'streaming'"),
    "recording-window-axis": (
        scenario({"recording": "streaming"}, sweep={"recording.window": [8, 16]}),
        "$.sweep.recording.window[0]: unknown parameter 'window' for recording mode "
        "'streaming'"),
    # Sweeps that would expand past the cell cap or overflow.
    "huge-range": (
        scenario(sweep={"seed": {"from": 1, "count": 4_000_000_000_000}}),
        "$.sweep.seed: 4000000000000 values"),
    "product-wrap": (
        scenario(sweep={axis: {"from": 1, "count": 65536}
                        for axis in ("seed", "pulses", "warmup", "trim")}),
        "$.sweep.pulses: 65536 values x 65536 cells"),
    "int64-wrap": (
        scenario(sweep={"seed": {"from": 9223372036854775000, "count": 2000}}),
        "$.sweep.seed: range from 9223372036854775000"),
    # Found only when the cells expand.
    "clustered-column": (
        scenario({"clustered_faults": {"count": 1, "column": 20}}),
        "cell 'base': clustered_faults.column 20 out of range (columns 8)"),
    # The line's end replicas have two neighbours, so trim 1 leaves no
    # window; refused at expansion, not when the run builds its nodes.
    "trim-over-degree": (
        scenario({"trim": 1}),
        "cell 'base': trim 1 needs 2 * trim < 2, the minimum neighbour count"),
    # The model's own constraints: each passed --dry-run and then aborted
    # the campaign with an unqualified check failure. Per-field bounds fail
    # at load, cross-field ones when the cell resolves.
    "layers-0": (scenario({"layers": 0}), "$.config.layers: layers must be >= 2"),
    "layers-1": (scenario({"layers": 1}), "$.config.layers: layers must be >= 2"),
    "u-over-d": (
        scenario({"params": {"u": 2000}}),
        "cell 'base': params.u 2000.0 must be < params.d 1000.0"),
    "u-negative": (scenario({"params": {"u": -1}}), "$.config.params.u: u must be >= 0"),
    "d-zero": (
        scenario({"params": {"d": 0}}), "cell 'base': params.u 10.0 must be < params.d 0.0"),
    "lambda-negative": (
        scenario({"params": {"lambda": -5}}), "$.config.params.lambda: lambda must be > 0"),
    "theta-below-1": (
        scenario({"params": {"theta": 0.5}}), "$.config.params.theta: theta must be >= 1"),
    "kappa-negative": (
        scenario({"params": {"theta": 1.5, "lambda": 1}}), "cell 'base': params give kappa -"),
    "fault-base-outside": (
        scenario({"faults": [{"base": 100, "layer": 2, "kind": "crash"}]}),
        "(kind 'crash' at base=100, layer=2): outside the grid"),
    "fault-layer-outside": (
        scenario({"faults": [{"base": 2, "layer": 100, "kind": "crash"}]}),
        "(kind 'crash' at base=2, layer=100): outside the grid"),
    # A negative drift breaks a component parameter's minimum (load); a
    # drift whose half-amplitude reaches the delay floor d - u would make
    # delays, and the sharded lookahead, non-positive (expansion).
    "drift-negative": (
        scenario({"delay_model": {"kind": "uniform-random", "drift_amplitude": -1}}),
        "$.config.delay_model: parameter 'drift_amplitude' of delay model "
        "'uniform-random' must be >= 0.0, got -1"),
    "drift-over-delay-floor": (
        scenario({"delay_model": {"kind": "uniform-random", "drift_amplitude": 1980}}),
        "cell 'base': delay_model.drift_amplitude 1980.0 must be < 2 (params.d - params.u)"),
    # The grid keeps one behaviour per node; the crash used to be dropped.
    "two-faults-one-node": (
        scenario({"faults": [{"base": 2, "layer": 3, "kind": "crash"},
                             {"base": 2, "layer": 3, "kind": "static-offset"}]}),
        "fault 1 (kind 'static-offset' at base=2, layer=3): fault 0 is on the same node"),
}


# name -> (argv after the binary, text one stderr line must contain).
FLAG_CASES = {
    "threads-word": (["quickstart-grid", "--threads=abc", "--dry-run"],
                     "--threads: 'abc'"),
    "threads-suffix": (["quickstart-grid", "--threads=4x", "--dry-run"],
                       "--threads: '4x'"),
    "progress-word": (["quickstart-grid", "--progress=abc", "--dry-run"],
                      "--progress: 'abc'"),
    "recording-windowed": (
        ["quickstart-grid", "--recording=windowed", "--dry-run"],
        "--recording: unknown recording mode 'windowed' (valid: full, streaming)"),
    "recording-window": (
        ["quickstart-grid", "--recording=streaming", "--recording-window=48", "--dry-run"],
        "unknown flag --recording-window"),
    "duplicate-out": (["quickstart-grid", "--out=a", "--out=b", "--dry-run"],
                      "duplicate flag --out"),
    "quiet-maybe": (["quickstart-grid", "--quiet=maybe", "--dry-run"],
                    "--quiet: 'maybe'"),
}


def fail(msg):
    print(f"malformed_scenario_test: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def sanitized(binary):
    image = pathlib.Path(binary).read_bytes()
    return any(marker in image for marker in (b"__asan_init", b"__tsan_init", b"__msan_init"))


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary = argv[1]
    limit = None if sanitized(binary) else limit_address_space

    with tempfile.TemporaryDirectory(prefix="gtrix_malformed_") as tmp:
        for name, (doc, expected) in CASES.items():
            path = pathlib.Path(tmp) / f"{name}.json"
            if doc is None:
                path.mkdir()
            else:
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            proc = subprocess.run([binary, str(path), "--dry-run"], capture_output=True,
                                  text=True, timeout=120, preexec_fn=limit)
            if proc.returncode != 2:
                fail(f"{name}: expected exit 2, got {proc.returncode}\n{proc.stderr}")
            if not proc.stderr.startswith(f"{path}: "):
                fail(f"{name}: stderr does not start with the file path:\n{proc.stderr}")
            if expected not in proc.stderr:
                fail(f"{name}: stderr lacks {expected!r}:\n{proc.stderr}")
            print(f"malformed_scenario_test: {name}: exit 2, {proc.stderr.strip()}")

        for name, (args, expected) in FLAG_CASES.items():
            proc = subprocess.run([binary, *args], capture_output=True, text=True,
                                  timeout=120, preexec_fn=limit)
            if proc.returncode != 2:
                fail(f"{name}: expected exit 2, got {proc.returncode}\n{proc.stderr}")
            if not any(expected in line for line in proc.stderr.splitlines()):
                fail(f"{name}: no stderr line contains {expected!r}:\n{proc.stderr}")
            print(f"malformed_scenario_test: {name}: exit 2, {proc.stderr.strip()}")

    print("malformed_scenario_test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
