#!/usr/bin/env python3
"""gtrix_lint: static determinism lint for the gradient-TRIX engine.

Every headline number this repository produces rests on a determinism
discipline -- byte-identical JSONL across (threads x shards), engine-
invariant telemetry counters, fully-serialized checkpoint state -- that the
differential test batteries can only SAMPLE (they diff specific
configurations).  This linter makes the forbidden patterns unwritable: it
runs over the C++ sources with zero dependencies beyond the Python stdlib
(the same pattern as check_doc_links.py / ckpt_inspect.py) and fails on any
construct that could leak nondeterminism into results or let serialized
state drift out of sync with its codec.  docs/determinism.md is the prose
contract; this file is the executable one.

Rules (kebab-case ids, used in allow pragmas):

  unordered-output-path  std::unordered_{map,set,multimap,multiset} are
                         banned in the output/measurement paths
                         (src/metrics, src/runner, src/registry,
                         src/scenario): hash-table iteration order is
                         unspecified, so a single loop over one can leak
                         arbitrary ordering into JSONL or skew results.
                         Banned at the TYPE level -- a lookup-only table is
                         one refactor away from an iteration, and the
                         allow pragma exists for the justified cases.
  wall-clock             rand()/srand(), std::random_device, time(),
                         gettimeofday, clock_gettime and
                         std::chrono::system_clock are banned in src/
                         outside src/obs/: wall-clock and environment
                         entropy belong to telemetry only.  Monotonic
                         steady_clock is allowed (it times work, it never
                         feeds results); all simulation randomness must
                         come from the seeded support/rng.hpp streams.
  pointer-key-ordered    std::map/std::set keyed on a pointer type are
                         banned in src/ outside src/obs/: their iteration
                         order is the allocator's address order, which
                         varies run to run.  (Pointer-keyed *unordered*
                         lookup tables are fine anywhere the two rules
                         above don't already ban them -- they cannot be
                         iterated deterministically, but lookups are.)
  reinterpret-cast       reinterpret_cast is banned in src/: the codec
                         layer uses std::bit_cast / std::memcpy for type
                         punning, and every remaining cast must carry an
                         allow pragma stating the aliasing/lifetime
                         argument (char-access of raw bytes is the only
                         blessed case).
  counter-tag            every ObsCounter enumerator must have a catalog
                         row whose engine-invariant tag is an explicit
                         bool literal; the JSONL byte-identity contract
                         hangs on that tag being a deliberate decision.
  ckpt-field-guard       every struct serialized in src/ckpt/state_ckpt.cpp
                         / nodes_ckpt.cpp / detail.hpp must have a
                         GTRIX_CKPT_FIELDS / GTRIX_CKPT_SIZEOF static
                         assert adjacent to its codec, so adding a field
                         without serializing it fails the BUILD, not a
                         kill-and-resume diff three PRs later.  Codecs are
                         the X::checkpoint(CkptIo&) members and the free
                         helpers taking a CkptIo& first; a struct counts
                         as serialized when the codec names it through a
                         reference, const or not.
  pragma                 allow pragmas must be well-formed and must carry a
                         reason; a pragma that suppresses nothing is a
                         finding too (stale escapes rot the budget).

Allow pragma contract (docs/determinism.md):

    // gtrix-lint: allow(rule-id) -- reason text
    // gtrix-lint: allow(rule-a,rule-b) -- shared reason

placed on the offending line or the line directly above it.  The reason is
mandatory.  The total number of allow pragmas under src/ is budgeted
(--pragma-budget, default 10): an escape hatch that grows without bound is
not a lint.

Usage:
    tools/gtrix_lint.py                 lint the repository (src/)
    tools/gtrix_lint.py --root DIR      lint another tree (fixtures)
    tools/gtrix_lint.py --self-test     run the fixture battery under
                                        tests/lint_fixtures/
    tools/gtrix_lint.py --list-rules    print the rule table
    tools/gtrix_lint.py --rules a,b     restrict to specific rules

Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage/internal.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

# --- configuration -----------------------------------------------------------

# Directories whose files feed JSONL / summary output or measurement:
# iteration order there IS the output contract.
OUTPUT_PATH_DIRS = ("src/metrics", "src/runner", "src/registry", "src/scenario")

# src/obs is the telemetry subsystem: wall-clock is its whole point, and its
# outputs are quarantined to summary/trace files (docs/observability.md).
WALL_CLOCK_EXEMPT_DIRS = ("src/obs",)

# Codec files whose serialized structs need field-count guards.
CKPT_CODEC_FILES = (
    "src/ckpt/state_ckpt.cpp",
    "src/ckpt/nodes_ckpt.cpp",
    "src/ckpt/detail.hpp",
)

# Types the ckpt-field-guard reference scan ignores: codec plumbing and
# standard library, not serialized payload records.
CKPT_PLUMBING_TYPES = {
    "CkptIo", "CkptWriter", "CkptCursor", "CkptTargetMap", "CkptFile",
    "CkptError", "Json", "Section",
}

TELEMETRY_HEADER = "src/obs/telemetry.hpp"
TELEMETRY_IMPL = "src/obs/telemetry.cpp"

CPP_EXTENSIONS = (".cpp", ".hpp", ".cc", ".h")

PRAGMA_RE = re.compile(
    r"//\s*gtrix-lint:\s*allow\(([^)]*)\)\s*(?:--\s*(.*))?$")


# --- findings and pragmas ----------------------------------------------------

@dataclass
class Finding:
    path: str      # repo-relative, '/'-separated
    line: int      # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Pragma:
    line: int
    rules: tuple[str, ...]
    reason: str
    used: bool = False


@dataclass
class SourceFile:
    """One C++ source with comments/strings stripped (line structure kept)."""
    path: str                      # repo-relative
    raw_lines: list[str]
    code_lines: list[str]          # stripped: pragmas and literals removed
    pragmas: list[Pragma] = field(default_factory=list)

    @property
    def code(self) -> str:
        return "\n".join(self.code_lines)

    def line_of_offset(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1


def strip_cpp(text: str) -> str:
    """Removes comment and string/char literal CONTENT, preserving newlines.

    Good enough for pattern linting: no preprocessor evaluation, raw strings
    handled in their common R"( ... )" form only.
    """
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                out.extend(ch if ch == "\n" else " " for ch in text[i:])
                i = n
            else:
                out.extend(ch if ch == "\n" else " " for ch in text[i:j + 2])
                i = j + 2
        elif c == "R" and text.startswith('R"(', i):
            j = text.find(')"', i + 3)
            end = n if j < 0 else j + 2
            out.append('""')
            out.extend(ch for ch in text[i:end] if ch == "\n")
            i = end
        elif c == '"' or c == "'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    i += 2
                elif text[i] == "\n":  # unterminated; keep line structure
                    break
                else:
                    i += 1
            if i < n and text[i] == quote:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def load_source(root: str, rel: str) -> SourceFile | None:
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except (OSError, UnicodeDecodeError):
        return None
    raw_lines = raw.split("\n")
    pragmas: list[Pragma] = []
    for idx, line in enumerate(raw_lines, start=1):
        m = PRAGMA_RE.search(line)
        if m:
            rules = tuple(r.strip() for r in m.group(1).split(",") if r.strip())
            reason = (m.group(2) or "").strip()
            pragmas.append(Pragma(line=idx, rules=rules, reason=reason))
    return SourceFile(path=rel, raw_lines=raw_lines,
                      code_lines=strip_cpp(raw).split("\n"), pragmas=pragmas)


# --- rule engine -------------------------------------------------------------

class Rule:
    name: str = ""
    summary: str = ""

    def run(self, ctx: "LintContext") -> list[Finding]:
        raise NotImplementedError


class LintContext:
    def __init__(self, root: str, rules: list[Rule]):
        self.root = root
        self.rules = rules
        self._cache: dict[str, SourceFile | None] = {}

    def source(self, rel: str) -> SourceFile | None:
        if rel not in self._cache:
            self._cache[rel] = load_source(self.root, rel)
        return self._cache[rel]

    def walk_cpp(self, subdir: str = "src") -> list[SourceFile]:
        base = os.path.join(self.root, subdir)
        rels = []
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    rels.append(os.path.relpath(full, self.root).replace(os.sep, "/"))
        return [s for rel in sorted(rels) if (s := self.source(rel))]


def pattern_findings(src: SourceFile, rule: str, regex: re.Pattern,
                     message) -> list[Finding]:
    found = []
    for idx, line in enumerate(src.code_lines, start=1):
        for m in regex.finditer(line):
            msg = message(m) if callable(message) else message
            found.append(Finding(src.path, idx, rule, msg))
    return found


# --- pattern rules -----------------------------------------------------------

UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")


class UnorderedOutputPathRule(Rule):
    name = "unordered-output-path"
    summary = ("no std::unordered_{map,set} in output/measurement paths "
               "(src/metrics, src/runner, src/registry, src/scenario)")

    def run(self, ctx: LintContext) -> list[Finding]:
        findings = []
        for src in ctx.walk_cpp():
            if not src.path.startswith(OUTPUT_PATH_DIRS):
                continue
            findings += pattern_findings(
                src, self.name, UNORDERED_RE,
                "unordered container in an output/measurement path: "
                "iteration order is unspecified and can leak into JSONL or "
                "skew results; use std::vector / std::map keyed on a "
                "deterministic value, or justify with an allow pragma")
        return findings


WALL_CLOCK_RES = (
    (re.compile(r"\bsrand\s*\("), "srand() seeds the C RNG from ambient state"),
    (re.compile(r"(?<![\w.>])rand\s*\("), "rand() is a hidden global RNG"),
    (re.compile(r"\brandom_device\b"), "std::random_device draws environment entropy"),
    (re.compile(r"\bsystem_clock\b"), "system_clock is wall-clock time"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday is wall-clock time"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime belongs to telemetry"),
    (re.compile(r"(?:\bstd::time|(?<![\w.>:])time)\s*\(\s*(?:NULL|nullptr|0|&|\))"),
     "time() is wall-clock time"),
)


class WallClockRule(Rule):
    name = "wall-clock"
    summary = ("no rand()/random_device/time()/system_clock outside src/obs "
               "(results must draw from seeded Rng streams only)")

    def run(self, ctx: LintContext) -> list[Finding]:
        findings = []
        for src in ctx.walk_cpp():
            if src.path.startswith(WALL_CLOCK_EXEMPT_DIRS):
                continue
            for regex, why in WALL_CLOCK_RES:
                findings += pattern_findings(
                    src, self.name, regex,
                    f"{why}; simulation state must be a function of the "
                    "config and seed (wall-clock/entropy belong to src/obs)")
        return findings


ORDERED_CONTAINER_RE = re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<")


class PointerKeyOrderedRule(Rule):
    name = "pointer-key-ordered"
    summary = ("no pointer-keyed std::map/std::set outside src/obs "
               "(iteration order would be address order)")

    def run(self, ctx: LintContext) -> list[Finding]:
        findings = []
        for src in ctx.walk_cpp():
            if src.path.startswith(WALL_CLOCK_EXEMPT_DIRS):
                continue
            for idx, line in enumerate(src.code_lines, start=1):
                for m in ORDERED_CONTAINER_RE.finditer(line):
                    key = first_template_arg(line[m.end():])
                    if key is not None and "*" in key:
                        findings.append(Finding(
                            src.path, idx, self.name,
                            f"ordered container keyed on a pointer "
                            f"('{key.strip()}'): iteration order is the "
                            "allocator's address order, which varies run to "
                            "run; key on a stable id instead"))
        return findings


def first_template_arg(rest: str) -> str | None:
    """Text of the first template argument after 'std::map<'."""
    depth = 0
    for i, c in enumerate(rest):
        if c in "<([":
            depth += 1
        elif c in ">)]":
            if depth == 0:
                return rest[:i]
            depth -= 1
        elif c == "," and depth == 0:
            return rest[:i]
    return None  # declaration continues on the next line; next line rescans


class ReinterpretCastRule(Rule):
    name = "reinterpret-cast"
    summary = ("no reinterpret_cast in src/ (std::bit_cast / std::memcpy "
               "for punning; char-access of bytes needs an allow pragma)")

    def run(self, ctx: LintContext) -> list[Finding]:
        findings = []
        for src in ctx.walk_cpp():
            findings += pattern_findings(
                src, self.name, re.compile(r"\breinterpret_cast\b"),
                "reinterpret_cast: use std::bit_cast or std::memcpy for "
                "type punning; if this is defined char-level access of raw "
                "bytes, state the aliasing argument in an allow pragma")
        return findings


# --- project rules -----------------------------------------------------------

def extract_braced_block(code: str, open_brace: int) -> str:
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return code[open_brace:i + 1]
    return code[open_brace:]


class CounterTagRule(Rule):
    name = "counter-tag"
    summary = ("every ObsCounter needs a catalog row whose engine-invariant "
               "tag is an explicit bool literal")

    def run(self, ctx: LintContext) -> list[Finding]:
        header = ctx.source(TELEMETRY_HEADER)
        impl = ctx.source(TELEMETRY_IMPL)
        if header is None or impl is None:
            return []
        findings: list[Finding] = []

        em = re.search(r"enum\s+class\s+ObsCounter[^{;]*\{", header.code)
        if not em:
            return [Finding(TELEMETRY_HEADER, 1, self.name,
                            "cannot locate 'enum class ObsCounter'")]
        block = extract_braced_block(header.code, em.end() - 1)
        base_line = header.line_of_offset(em.end() - 1)
        enum_lines: dict[str, int] = {}
        for em2 in re.finditer(r"^\s*(k[A-Z]\w*)\s*[,=}]", block, re.MULTILINE):
            if em2.group(1) != "kCount":
                enum_lines[em2.group(1)] = base_line + block.count("\n", 0, em2.start())

        cm = re.search(r"ObsCounterInfo\s+kCatalog\[\]\s*=\s*\{", impl.code)
        if not cm:
            return [Finding(TELEMETRY_IMPL, 1, self.name,
                            "cannot locate the kCatalog table")]
        body = extract_braced_block(impl.code, cm.end() - 1)
        body_line = impl.line_of_offset(cm.end() - 1)
        rows: dict[str, tuple[int, str | None]] = {}
        for rm in re.finditer(
                r"\{\s*ObsCounter::(k[A-Z]\w*)\s*,([^{}]*)", body):
            row_line = body_line + body.count("\n", 0, rm.start())
            # rest = '"name", true, ...' with the literal blanked to "";
            # the tag is the token after the first comma.
            rest = rm.group(2)
            parts = [p.strip() for p in rest.split(",")]
            tag = parts[1] if len(parts) > 1 else None
            rows[rm.group(1)] = (row_line, tag)

        for name, line in sorted(enum_lines.items()):
            if name not in rows:
                findings.append(Finding(
                    TELEMETRY_HEADER, line, self.name,
                    f"ObsCounter::{name} has no kCatalog row: the counter "
                    "would export without a name or tag"))
        for name, (line, tag) in sorted(rows.items()):
            if name not in enum_lines:
                findings.append(Finding(
                    TELEMETRY_IMPL, line, self.name,
                    f"kCatalog row for unknown ObsCounter::{name}"))
            if tag not in ("true", "false"):
                findings.append(Finding(
                    TELEMETRY_IMPL, line, self.name,
                    f"kCatalog row {name}: the engine-invariant tag must be "
                    "a literal true (JSONL-safe) or false (summary-only), "
                    "written out explicitly -- this is the byte-identity "
                    "contract, not a default"))
        return findings


GUARD_RE = re.compile(r"GTRIX_CKPT_(?:FIELDS|SIZEOF)\s*\(\s*([\w:]+)")
# Member codecs: `void X::checkpoint(CkptIo& io[, ...]) {`.
CODEC_DEF_RE = re.compile(
    r"(?:void|^\s*\w[\w:<>]*)\s+(?:[\w:]+::)?(\w+)::checkpoint\s*"
    r"\(\s*CkptIo\s*&[^)]*\)\s*\{", re.MULTILINE)
# Shared helpers: a free function whose first parameter is the CkptIo.
HELPER_FN_RE = re.compile(
    r"\bvoid\s+(\w+)\s*\(\s*CkptIo\s*&[^)]*\)\s*\{", re.MULTILINE)
# A struct reached through a reference, const or not (a read-write codec
# binds its payload records as `X&`); `&&` is a forwarding reference or a
# logical and, never a payload binding.
REF_RE = re.compile(r"\b(?:const\s+)?([A-Z]\w*)\s*&(?!&)")


class CkptFieldGuardRule(Rule):
    name = "ckpt-field-guard"
    summary = ("every struct serialized in the ckpt codecs needs an "
               "adjacent GTRIX_CKPT_FIELDS/GTRIX_CKPT_SIZEOF guard")

    def run(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for rel in CKPT_CODEC_FILES:
            src = ctx.source(rel)
            if src is None:
                continue
            code = src.code
            regions: list[tuple[str, int, str, set[str]]] = []
            for dm in CODEC_DEF_RE.finditer(code):
                body = extract_braced_block(code, dm.end() - 1)
                line = src.line_of_offset(dm.start())
                required = {dm.group(1)}
                required |= {t for t in ref_types(body)
                             if t not in CKPT_PLUMBING_TYPES}
                regions.append((dm.group(1), line, body, required))
            for hm in HELPER_FN_RE.finditer(code):
                body = extract_braced_block(code, hm.end() - 1)
                line = src.line_of_offset(hm.start())
                # a helper serializes the types of its reference params
                sig = code[hm.start():hm.end()]
                required = {t for t in ref_types(sig + body)
                            if t not in CKPT_PLUMBING_TYPES}
                regions.append((hm.group(1), line, body, required))
            for codec_name, line, body, required in regions:
                guards = {g.split("::")[-1]
                          for g in GUARD_RE.findall(body)}
                for t in sorted(required - guards):
                    findings.append(Finding(
                        src.path, line, self.name,
                        f"codec '{codec_name}' serializes {t} but carries no "
                        f"GTRIX_CKPT_FIELDS({t}, N) / GTRIX_CKPT_SIZEOF "
                        "guard: a new field could silently skip "
                        "serialization; add the static assert inside the "
                        "codec body"))
        return findings


def ref_types(body: str) -> set[str]:
    return {m.group(1) for m in REF_RE.finditer(body)}


ALL_RULES: list[Rule] = [
    UnorderedOutputPathRule(),
    WallClockRule(),
    PointerKeyOrderedRule(),
    ReinterpretCastRule(),
    CounterTagRule(),
    CkptFieldGuardRule(),
]
RULE_NAMES = {r.name for r in ALL_RULES}


# --- pragma application ------------------------------------------------------

def apply_pragmas(ctx: LintContext, findings: list[Finding],
                  pragma_budget: int | None) -> list[Finding]:
    """Suppresses findings covered by allow pragmas; flags bad/stale ones."""
    out: list[Finding] = []
    by_file: dict[str, list[Finding]] = {}
    for f in findings:
        by_file.setdefault(f.path, []).append(f)

    touched = set(by_file)
    touched.update(rel for rel, src in ctx._cache.items()
                   if src is not None and src.pragmas)

    pragma_count = 0
    for rel in sorted(touched):
        src = ctx.source(rel)
        if src is None:
            out.extend(by_file.get(rel, []))
            continue
        for f in by_file.get(rel, []):
            suppressed = False
            for p in src.pragmas:
                if p.line in (f.line, f.line - 1) and f.rule in p.rules:
                    p.used = True
                    suppressed = True
            if not suppressed:
                out.append(f)
        for p in src.pragmas:
            if rel.startswith("src/"):
                pragma_count += 1
            unknown = [r for r in p.rules if r not in RULE_NAMES]
            if unknown:
                out.append(Finding(
                    rel, p.line, "pragma",
                    f"allow pragma names unknown rule(s) {unknown}; "
                    f"known: {sorted(RULE_NAMES)}"))
            if not p.reason:
                out.append(Finding(
                    rel, p.line, "pragma",
                    "allow pragma without a reason: write "
                    "'// gtrix-lint: allow(rule) -- why this is safe'"))
            elif not p.used and not unknown:
                out.append(Finding(
                    rel, p.line, "pragma",
                    f"allow pragma for {list(p.rules)} suppresses nothing: "
                    "stale escape, delete it"))
    if pragma_budget is not None and pragma_count > pragma_budget:
        out.append(Finding(
            "src", 1, "pragma",
            f"{pragma_count} allow pragmas under src/ exceed the budget of "
            f"{pragma_budget}: the escape hatch is becoming the rule"))
    return out


# --- driver ------------------------------------------------------------------

def run_lint(root: str, rule_filter: set[str] | None,
             pragma_budget: int | None) -> list[Finding]:
    rules = [r for r in ALL_RULES
             if rule_filter is None or r.name in rule_filter]
    ctx = LintContext(root, rules)
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.run(ctx))
    findings = apply_pragmas(ctx, findings, pragma_budget)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def self_test(repo_root: str) -> int:
    """Fixture battery: every rule must fire on its bad/ tree and stay
    silent on its good/ tree (tests/lint_fixtures/README.md)."""
    fixtures = os.path.join(repo_root, "tests", "lint_fixtures")
    if not os.path.isdir(fixtures):
        print(f"gtrix_lint: no fixture tree at {fixtures}", file=sys.stderr)
        return 2
    failures = 0
    covered: set[str] = set()
    for rule_dir in sorted(os.listdir(fixtures)):
        rule_path = os.path.join(fixtures, rule_dir)
        if not os.path.isdir(rule_path):
            continue
        if rule_dir not in RULE_NAMES and rule_dir != "pragma":
            print(f"FAIL {rule_dir}: fixture directory matches no rule")
            failures += 1
            continue
        covered.add(rule_dir)
        # bad-<case>/ roots pin further ways a rule must fire, one each.
        extra_bad = sorted(d for d in os.listdir(rule_path) if d.startswith("bad-"))
        for direction in ("bad", *extra_bad, "good"):
            droot = os.path.join(rule_path, direction)
            if not os.path.isdir(droot):
                print(f"FAIL {rule_dir}/{direction}: fixture missing")
                failures += 1
                continue
            findings = run_lint(droot, None, pragma_budget=10)
            hits = [f for f in findings if f.rule == rule_dir]
            if direction.startswith("bad") and not hits:
                print(f"FAIL {rule_dir}/{direction}: expected >=1 {rule_dir} "
                      "finding, got none")
                failures += 1
            elif direction == "good" and findings:
                print(f"FAIL {rule_dir}/good: expected a clean run, got:")
                for f in findings:
                    print(f"  {f.render()}")
                failures += 1
            else:
                print(f"ok   {rule_dir}/{direction}"
                      + (f" ({len(hits)} finding(s))" if direction != "good" else ""))
    missing = (RULE_NAMES | {"pragma"}) - covered
    for rule in sorted(missing):
        print(f"FAIL {rule}: no fixture directory exercises this rule")
        failures += 1
    if failures:
        print(f"gtrix_lint self-test: {failures} failure(s)")
        return 1
    print(f"gtrix_lint self-test: all {len(covered)} rule fixtures pass "
          "in both directions")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="gtrix_lint.py",
        description="Static determinism lint for the gradient-TRIX engine "
                    "(rules and pragma contract: docs/determinism.md).")
    parser.add_argument("--root", default=None,
                        help="tree to lint (default: the repository root "
                             "containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture battery under tests/lint_fixtures/")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--pragma-budget", type=int, default=10,
                        help="max allow pragmas under src/ (default 10; "
                             "negative disables the budget)")
    args = parser.parse_args(argv)

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.name:22} {rule.summary}")
        print(f"{'pragma':22} allow pragmas must be well-formed, justified "
              "and in use")
        return 0
    if args.self_test:
        return self_test(repo_root)

    rule_filter = None
    if args.rules:
        rule_filter = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = rule_filter - RULE_NAMES
        if unknown:
            print(f"gtrix_lint: unknown rule(s): {sorted(unknown)}",
                  file=sys.stderr)
            return 2

    root = args.root or repo_root
    budget = None if args.pragma_budget < 0 else args.pragma_budget
    findings = run_lint(root, rule_filter, budget)
    for f in findings:
        print(f.render())
    if findings:
        print(f"gtrix_lint: {len(findings)} finding(s)")
        return 1
    print("gtrix_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
