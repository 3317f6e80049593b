#!/usr/bin/env python3
"""Validates and summarizes gtrix checkpoint files (docs/checkpointing.md).

Independently re-implements the container framing in src/ckpt/codec.cpp --
so a file written by the C++ side is cross-checked by a second decoder,
never just round-tripped through the code that wrote it:

  "GTRXCKPT" | u32 version | u32 header_len | header JSON
  | sections: { u32 name_len | name | u64 body_len | body }*
  | u32 CRC-32 (zlib polynomial, over every preceding byte)

Snapshots (`*.ckpt`, header format "gtrix-checkpoint") and done files
(`*.done`, "gtrix-cell-done") share it. All integers little-endian. Checks
performed per file:
  * magic, supported version (11), CRC over the full image;
  * the JSON header parses, and its version matches the container's;
  * the section table frames exactly the bytes between header and CRC;
  * the header keys, meta keys and sections FORMATS lists for the header's
    format.

Then prints the runner metadata and a per-section size table. Exits 2 on
any validation failure, in line with the CLI tools' corrupt-checkpoint
contract.

Stdlib only; CI runs it against the artifacts a checkpointed campaign
leaves behind.

Usage: tools/ckpt_inspect.py CKPT_DONE_OR_DIR [...] [--quiet]
"""
import json
import pathlib
import struct
import sys
import zlib

MAGIC = b"GTRXCKPT"
SUPPORTED_VERSION = 11
# Header format -> (required header keys, required meta keys, mandatory
# sections).
FORMATS = {
    "gtrix-checkpoint": (("config", "engine", "meta"), (),
                         ("sims", "net", "nodes", "faults", "recorder")),
    "gtrix-cell-done": (("meta",), ("cell", "label", "index", "fingerprint"),
                        ("result",)),
}


def fail(path, msg):
    print(f"ckpt_inspect: FAIL: {path}: {msg}", file=sys.stderr)
    sys.exit(2)


def parse(path):
    data = path.read_bytes()
    if len(data) < len(MAGIC) + 4 + 4 + 4 or not data.startswith(MAGIC):
        fail(path, "not a gtrix checkpoint (bad magic)")
    at = len(MAGIC)
    (version,) = struct.unpack_from("<I", data, at)
    at += 4
    if version != SUPPORTED_VERSION:
        fail(path, f"format version {version} is not supported "
                   f"(this tool reads version {SUPPORTED_VERSION})")
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    actual_crc = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        fail(path, "CRC mismatch (truncated or corrupt file)")
    body_end = len(data) - 4

    (header_len,) = struct.unpack_from("<I", data, at)
    at += 4
    if body_end - at < header_len:
        fail(path, "truncated (header extends past end of file)")
    try:
        header = json.loads(data[at:at + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        fail(path, f"header is not valid JSON ({e})")
    at += header_len

    sections = []
    while at < body_end:
        if body_end - at < 4:
            fail(path, "truncated section table")
        (name_len,) = struct.unpack_from("<I", data, at)
        at += 4
        if body_end - at < name_len:
            fail(path, "truncated section name")
        name = data[at:at + name_len].decode("utf-8", errors="replace")
        at += name_len
        if body_end - at < 8:
            fail(path, "truncated section length")
        (body_len,) = struct.unpack_from("<Q", data, at)
        at += 8
        if body_end - at < body_len:
            fail(path, f"truncated section {name!r}")
        sections.append((name, body_len))
        at += body_len

    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt not in FORMATS:
        fail(path, f"header format is {fmt!r}, expected one of {sorted(FORMATS)}")
    keys, meta_keys, mandatory = FORMATS[fmt]
    for key in ("version", *keys):
        if key not in header:
            fail(path, f"header is missing {key!r}")
    if header["version"] != version:
        fail(path, f"header version {header['version']} disagrees with "
                   f"container version {version}")
    meta = header.get("meta")
    for key in meta_keys:
        if not isinstance(meta, dict) or key not in meta:
            fail(path, f"header meta is missing {key!r}")
    names = [name for name, _ in sections]
    if len(set(names)) != len(names):
        fail(path, f"duplicate section names: {names}")
    for name in mandatory:
        if name not in names:
            fail(path, f"missing mandatory section {name!r}")
    return len(data), header, sections


def describe(path, size, header, sections, quiet):
    if quiet:
        return
    meta = header.get("meta")
    print(f"{path}: {size} bytes, {header['format']} version "
          f"{header['version']}, CRC ok")
    if header["format"] == "gtrix-cell-done":
        print(f"  cell: {meta['cell']} label={meta['label']} "
              f"index={meta['index']}")
    else:
        config = header["config"]
        print(f"  engine: shards={header['engine'].get('shards')}")
        shape = {k: config.get(k) for k in ("columns", "layers", "pulses",
                                            "seed") if k in config}
        print(f"  config: {shape}")
        if isinstance(meta, dict):
            print(f"  runner: t={meta.get('t')} phase={meta.get('phase')} "
                  f"chunk={meta.get('chunk')} cell={meta.get('cell')}")
    for name, body_len in sections:
        print(f"  section {name:<10} {body_len:>12} bytes")


def main(argv):
    quiet = "--quiet" in argv[1:]
    args = [a for a in argv[1:] if a != "--quiet"]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    files = []
    for arg in args:
        p = pathlib.Path(arg)
        if p.is_dir():
            found = sorted([*p.rglob("*.ckpt"), *p.rglob("*.done")])
            if not found:
                fail(p, "directory contains no .ckpt or .done files")
            files.extend(found)
        elif p.is_file():
            files.append(p)
        else:
            fail(p, "no such file or directory")

    for path in files:
        size, header, sections = parse(path)
        describe(path, size, header, sections, quiet)
    if not quiet:
        print(f"ckpt_inspect: {len(files)} file(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
