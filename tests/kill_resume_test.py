#!/usr/bin/env python3
"""Kill-and-resume byte-identity test for gtrix_campaign checkpointing.

For each scenario (plain, mid-run corruption, streaming recording) and each
(threads, shards) combination:
  1. run the campaign uninterrupted once to get the reference JSONL bytes
     and summary (the JSONL is thread/shard-invariant by design, so one
     serial reference serves every combination);
  2. start a fresh checkpointed run, SIGKILL it at a randomized moment
     after its first snapshot hits disk;
  3. rerun with --resume and require byte-identical JSONL plus an identical
     summary skew block (wall-clock and engine-shaped telemetry excluded --
     they are documented as non-portable).

Then damaged artifacts must fail the resume with exit 2 and a
path-qualified message: a snapshot with a flipped bit, a CRC-valid
snapshot with an inflated element count, a done file with a flipped bit in
its result section, and a JSON done document of the earlier format in
place of a done file. So must a resume after the scenario file was
edited: a done file or a snapshot written under another config or
corruption plan is never reused.

A kill that lands after the campaign already finished still exercises the
done-file reload path; the randomized delay is printed so a failing timing
can be replayed.

Usage: tests/kill_resume_test.py GTRIX_CAMPAIGN_BINARY [--combos=N]
"""
import json
import os
import pathlib
import random
import signal
import struct
import subprocess
import sys
import tempfile
import time
import zlib

SCENARIOS = {
    "kr-plain": {
        "name": "kr-plain",
        "config": {"columns": 8, "layers": 10, "pulses": 30},
        "sweep": {"seed": [1, 2, 3]},
    },
    "kr-corrupt": {
        "name": "kr-corrupt",
        "config": {"columns": 8, "layers": 8, "pulses": 40,
                   "self_stabilizing": True},
        "corrupt": {"wave": 10.0, "fraction": 1.0},
        "sweep": {"seed": [1, 2]},
    },
    "kr-stream": {
        "name": "kr-stream",
        "config": {"columns": 8, "layers": 10, "pulses": 30,
                   "recording": "streaming"},
        "sweep": {"seed": [1, 2]},
    },
    # Corruption + streaming recording together: snapshots can land
    # mid-corruption or mid-recovery, and the resume must rebuild the
    # pulse trace that realignment reads bit-exactly.
    "kr-corrupt-stream": {
        "name": "kr-corrupt-stream",
        "config": {"columns": 8, "layers": 8, "pulses": 40,
                   "self_stabilizing": True,
                   "recording": "streaming"},
        "corrupt": {"wave": 10.0, "fraction": 1.0},
        "sweep": {"seed": [1, 2]},
    },
}

CKPT_MAGIC = b"GTRXCKPT"

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

COMBOS = [(1, 1), (1, 2), (1, 4), (4, 1), (4, 2), (4, 4)]

# Summary keys that must survive a kill/resume bit-exactly. wall_seconds is
# measured, engine_stats carries engine-shaped + wall-clock telemetry, and
# threads/shards describe the host layout -- all documented as non-portable.
COMPARED_SUMMARY_KEYS = ("scenario", "cells", "local_skew", "global_skew",
                         "cells_within_thm11_bound", "counters")


def fail(msg):
    print(f"kill_resume_test: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_campaign(binary, scenario_file, out_dir, threads, shards, extra=()):
    cmd = [binary, str(scenario_file), f"--threads={threads}",
           f"--shards={shards}", f"--out={out_dir}", "--quiet", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def summary_subset(path):
    doc = json.loads(path.read_text())
    return {k: doc.get(k) for k in COMPARED_SUMMARY_KEYS}


def section_body(image, name):
    """(offset, length) of section `name`'s body in a checkpoint image."""
    at = len(CKPT_MAGIC) + 4
    (header_len,) = struct.unpack_from("<I", image, at)
    at += 4 + header_len
    while at + 4 < len(image):
        (name_len,) = struct.unpack_from("<I", image, at)
        section = bytes(image[at + 4:at + 4 + name_len])
        (body_len,) = struct.unpack_from("<Q", image, at + 4 + name_len)
        at += 4 + name_len + 8
        if section == name.encode():
            return at, body_len
        at += body_len
    fail(f"checkpoint image has no {name!r} section")


def kill_after_first_snapshot(proc, ckpt_dir, delay, timeout=120.0):
    """SIGKILL `proc` a randomized delay after its first snapshot lands."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and proc.poll() is None:
        if any(ckpt_dir.rglob("*.ckpt")):
            break
        time.sleep(0.005)
    time.sleep(delay)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=60)
    return proc.returncode


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary = argv[1]
    combos = COMBOS
    for arg in argv[2:]:
        if arg.startswith("--combos="):
            combos = COMBOS[:int(arg.split("=", 1)[1])]

    seed = int.from_bytes(os.urandom(4), "little")
    rng = random.Random(seed)
    print(f"kill_resume_test: rng seed {seed}")

    with tempfile.TemporaryDirectory(prefix="gtrix_kill_resume_") as tmp:
        tmp = pathlib.Path(tmp)
        for name, doc in SCENARIOS.items():
            scenario_file = tmp / f"{name}.json"
            scenario_file.write_text(json.dumps(doc))

            ref_dir = tmp / name / "ref"
            run_campaign(binary, scenario_file, ref_dir, 1, 1)
            ref_jsonl = (ref_dir / f"{name}.jsonl").read_bytes()
            ref_summary = summary_subset(ref_dir / f"{name}.summary.json")

            for threads, shards in combos:
                tag = f"{name} threads={threads} shards={shards}"
                work = tmp / name / f"t{threads}s{shards}"
                ckpt_dir = work / "ckpt"
                out_dir = work / "out"
                delay = rng.uniform(0.0, 0.4)

                cmd = [binary, str(scenario_file), f"--threads={threads}",
                       f"--shards={shards}", f"--out={out_dir}", "--quiet",
                       f"--checkpoint-dir={ckpt_dir}", "--checkpoint-every=4000"]
                proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                        stderr=subprocess.DEVNULL)
                rc = kill_after_first_snapshot(proc, ckpt_dir, delay)
                print(f"kill_resume_test: {tag}: killed after {delay:.3f}s "
                      f"(exit {rc})")

                run_campaign(binary, scenario_file, out_dir, threads, shards,
                             extra=[f"--checkpoint-dir={ckpt_dir}",
                                    "--checkpoint-every=4000", "--resume"])
                resumed_jsonl = (out_dir / f"{name}.jsonl").read_bytes()
                if resumed_jsonl != ref_jsonl:
                    fail(f"{tag}: resumed JSONL differs from the "
                         f"uninterrupted reference (kill delay {delay:.3f}s, "
                         f"rng seed {seed})")
                resumed_summary = summary_subset(out_dir / f"{name}.summary.json")
                if resumed_summary != ref_summary:
                    fail(f"{tag}: resumed summary skew block differs "
                         f"(kill delay {delay:.3f}s, rng seed {seed}):\n"
                         f"  reference: {ref_summary}\n"
                         f"  resumed:   {resumed_summary}")
                print(f"kill_resume_test: {tag}: byte-identical after resume")

        # Corrupt-artifact contract: a damaged snapshot must fail the resume
        # hard (exit 2) with a path-qualified message, never run silently.
        name = "kr-plain"
        scenario_file = tmp / f"{name}.json"
        work = tmp / "corrupt-artifact"
        ckpt_dir = work / "ckpt"
        out_dir = work / "out"
        run_campaign(binary, scenario_file, out_dir, 1, 1,
                     extra=[f"--checkpoint-dir={ckpt_dir}",
                            "--checkpoint-every=4000"])
        victims = sorted(ckpt_dir.rglob("*.ckpt"))
        if not victims:
            fail("checkpointed reference run left no .ckpt files to corrupt")
        victim = victims[0]
        original = victim.read_bytes()
        # Remove the done marker so the resume actually opens the snapshot.
        done = victim.parent / (victim.name[:-len(".ckpt")] + ".done")
        if done.exists():
            done.unlink()
        cmd = [binary, str(scenario_file), "--threads=1", "--shards=1",
               f"--out={out_dir}", "--quiet", f"--checkpoint-dir={ckpt_dir}",
               "--checkpoint-every=4000", "--resume"]

        def expect_resume_fails(path, blob, needle, what):
            path.write_bytes(blob)
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 2:
                fail(f"{what}: expected exit 2, got {proc.returncode} "
                     f"(stderr: {proc.stderr!r})")
            if needle not in proc.stderr or path.name not in proc.stderr:
                fail(f"{what}: stderr lacks a path-qualified {needle!r} "
                     f"message: {proc.stderr!r}")
            print(f"kill_resume_test: {what} fails hard with exit 2")

        flipped = bytearray(original)
        flipped[len(flipped) // 2] ^= 0x01
        expect_resume_fails(victim, flipped, "CRC mismatch", "corrupt snapshot")

        # CRC-valid but inflated: the event-queue slot count (offset 60 of
        # the "sims" body) set to 2^40 must be bounded before allocation.
        inflated = bytearray(original)
        body, _ = section_body(inflated, "sims")
        struct.pack_into("<Q", inflated, body + 60, 1 << 40)
        struct.pack_into("<I", inflated, len(inflated) - 4,
                         zlib.crc32(bytes(inflated[:-4])))
        expect_resume_fails(victim, inflated, "event slot count",
                            "inflated slot count")
        victim.write_bytes(original)

        # A done file is a checkpoint container too: one flipped bit inside
        # its result section is a CRC mismatch, not a silently wrong result.
        done = sorted(ckpt_dir.rglob("*.done"))[0]
        image = bytearray(done.read_bytes())
        body, body_len = section_body(image, "result")
        image[body + body_len // 2] ^= 0x08
        expect_resume_fails(done, image, "CRC mismatch", "bit-flipped done file")

        # The earlier JSON done document under the new name is not read as
        # a result.
        legacy = {"format": "gtrix-cell-done", "version": 2,
                  "cell": done.name[:-len(".done")], "label": "seed=1",
                  "index": 0, "fingerprint": {},
                  "result": {"format": "gtrix-cell-result", "version": 2}}
        expect_resume_fails(done, (json.dumps(legacy, indent=2) + "\n").encode(),
                            "bad magic", "JSON done document")

        check_edited_scenarios_are_refused(binary, tmp)

    print("kill_resume_test: OK")
    return 0


def check_edited_scenarios_are_refused(binary, tmp):
    """Resuming after an edit of the scenario file must refuse the stale
    artifact (exit 2, its path in the message) instead of reporting the old
    results under the new config."""
    def edited_resume(builtin, edit, every, drop_done, needle):
        work = tmp / f"edited-{builtin}"
        doc = json.loads((SCENARIO_DIR / f"{builtin}.json").read_text())
        scenario_file = work / f"{builtin}.json"
        work.mkdir()
        scenario_file.write_text(json.dumps(doc))
        flags = [f"--checkpoint-dir={work / 'ckpt'}", f"--checkpoint-every={every}"]
        run_campaign(binary, scenario_file, work / "out", 2, 1, extra=flags)
        if drop_done:
            for done in (work / "ckpt").rglob("*.done"):
                done.unlink()
        edit(doc)
        scenario_file.write_text(json.dumps(doc))
        cmd = [binary, str(scenario_file), "--threads=2", "--shards=1",
               f"--out={work / 'out'}", "--quiet", *flags, "--resume"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 2 or needle not in proc.stderr or \
                "different config or corruption plan" not in proc.stderr:
            fail(f"{builtin}: resuming the edited file must exit 2 naming the "
                 f"stale {needle}, got exit {proc.returncode}: {proc.stderr!r}")
        print(f"kill_resume_test: edited {builtin}: stale {needle} refused, exit 2")

    # Done files: 10 -> 14 pulses used to reload the 10-pulse results.
    edited_resume("quickstart-grid", lambda d: d["config"].update(pulses=14),
                  4000, False, ".done")
    # Snapshots: the corruption wave is not part of the config block.
    edited_resume("thm16-stabilization", lambda d: d["corrupt"].update(wave=14.0),
                  20000, True, ".ckpt")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
