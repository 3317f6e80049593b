#!/usr/bin/env python3
"""Validates a gtrix_campaign --trace-out Chrome trace and summarizes it.

Checks the trace-event JSON schema (the subset gtrix emits, loadable in
Perfetto / chrome://tracing):
  * top level is an object with a "traceEvents" array;
  * every event has string "ph" and "name"; spans ("ph": "X") additionally
    carry numeric "ts" >= 0 and "dur" >= 0 plus integer "pid"/"tid";
  * metadata events ("ph": "M") are process_name/thread_name with an
    args.name string;
  * every span's (pid, tid) has a thread_name, every pid a process_name
    (so Perfetto shows labeled tracks, never bare numbers);
  * span names are from the emitter's fixed vocabulary: per-shard
    "window"/"window-final"/"barrier", cell phases
    "run"/"corrupt"/"recover"/"realign", and campaign cell labels on pid 1.

Then prints a per-shard busy / barrier-wait breakdown per cell process and
the campaign-level cell spans. Exits non-zero on any schema violation.

Stdlib only; CI runs it against the sharded campaign smoke trace.

Usage: tools/trace_summary.py TRACE.json [--quiet]
"""
import collections
import json
import sys

CAMPAIGN_PID = 1
SHARD_SPANS = {"window", "window-final", "barrier"}
PHASE_SPANS = {"run", "corrupt", "recover", "realign"}


def fail(msg):
    print(f"trace_summary: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(doc):
    if not isinstance(doc, dict):
        fail("top level is not a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail('missing "traceEvents" array')
    if not events:
        fail("trace has no events")

    process_names = {}
    thread_names = {}
    spans = []
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            fail(f"{where} is not an object")
        ph = e.get("ph")
        name = e.get("name")
        if not isinstance(ph, str) or not isinstance(name, str):
            fail(f'{where} needs string "ph" and "name"')
        if ph == "M":
            if name not in ("process_name", "thread_name"):
                fail(f"{where}: unknown metadata event {name!r}")
            args = e.get("args")
            if not isinstance(args, dict) or not isinstance(args.get("name"), str):
                fail(f"{where}: metadata event without args.name string")
            if name == "process_name":
                process_names[e.get("pid")] = args["name"]
            else:
                thread_names[(e.get("pid"), e.get("tid"))] = args["name"]
        elif ph == "X":
            for key in ("pid", "tid"):
                if not isinstance(e.get(key), int):
                    fail(f'{where}: span needs integer "{key}"')
            for key in ("ts", "dur"):
                v = e.get(key)
                if not isinstance(v, (int, float)) or v < 0:
                    fail(f'{where}: span needs numeric "{key}" >= 0')
            if e["pid"] != CAMPAIGN_PID and name not in SHARD_SPANS | PHASE_SPANS:
                fail(f"{where}: unexpected span name {name!r} on cell pid {e['pid']}")
            spans.append(e)
        else:
            fail(f"{where}: unexpected phase {ph!r} (emitter only writes X and M)")

    if not spans:
        fail("trace has no spans")
    for e in spans:
        if e["pid"] not in process_names:
            fail(f"span on pid {e['pid']} has no process_name metadata")
        # Campaign-level (pid 1) tracks are sweep workers; cell pids name
        # every shard tid, and phase spans share tid 0 with shard 0.
        if e["pid"] != CAMPAIGN_PID and (e["pid"], e["tid"]) not in thread_names:
            fail(f"span on pid {e['pid']} tid {e['tid']} has no thread_name metadata")
    return process_names, spans


def summarize(process_names, spans):
    print(f"{len(spans)} spans across {len(process_names)} processes")

    cell_spans = [e for e in spans if e["pid"] == CAMPAIGN_PID]
    if cell_spans:
        print("\ncampaign cells (pid 1):")
        for e in sorted(cell_spans, key=lambda e: e["ts"]):
            events = e.get("args", {}).get("events")
            extra = f"  {events} logical events" if isinstance(events, int) else ""
            print(f"  {e['name']:40s} {e['dur'] / 1e3:9.2f} ms{extra}")

    by_cell = collections.defaultdict(lambda: collections.defaultdict(
        lambda: {"busy_us": 0.0, "barrier_us": 0.0, "windows": 0}))
    for e in spans:
        if e["pid"] == CAMPAIGN_PID:
            continue
        row = by_cell[e["pid"]][e["tid"]]
        if e["name"] == "barrier":
            row["barrier_us"] += e["dur"]
        elif e["name"] in SHARD_SPANS:
            row["busy_us"] += e["dur"]
            row["windows"] += 1
    shard_cells = {
        pid: tids
        for pid, tids in by_cell.items()
        if any(r["windows"] > 0 for r in tids.values())
    }
    if shard_cells:
        print("\nper-shard busy / barrier-wait (sharded cells):")
        for pid in sorted(shard_cells):
            print(f"  {process_names[pid]} (pid {pid}):")
            for tid in sorted(shard_cells[pid]):
                r = shard_cells[pid][tid]
                total = r["busy_us"] + r["barrier_us"]
                pct = 100.0 * r["busy_us"] / total if total > 0 else 0.0
                print(f"    shard {tid}: {r['windows']:5d} windows  "
                      f"busy {r['busy_us'] / 1e3:9.2f} ms  "
                      f"barrier {r['barrier_us'] / 1e3:9.2f} ms  "
                      f"({pct:.0f}% busy)")


def main(argv):
    args = [a for a in argv[1:] if a != "--quiet"]
    quiet = "--quiet" in argv[1:]
    if len(args) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    try:
        with open(args[0], "rb") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        fail(f"cannot load {args[0]}: {err}")
    process_names, spans = validate(doc)
    if not quiet:
        summarize(process_names, spans)
    print(f"trace_summary: OK: {args[0]} ({len(spans)} spans)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
