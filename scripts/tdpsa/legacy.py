"""The seven PR 3–7 lint rules, ported from scripts/lint.py.

Rule 2 (blocking-under-lock) is no longer a two-file regex special case:
it is superseded by the whole-program pass in concurrency.py, which
covers every file and propagates through the call graph. The other six
stay cheap line scans, now emitting structured findings through the
shared registry (one NOLINT budget, one baseline, one SARIF stream).
"""

from __future__ import annotations

import re
from pathlib import PurePosixPath

from .findings import Report

# Rule 1: raw sync primitives -----------------------------------------------

RAW_SYNC_PATTERNS = [
    (re.compile(r"\bstd::(recursive_|timed_|recursive_timed_)?mutex\b"), "std::mutex"),
    (re.compile(r"\bstd::shared_(timed_)?mutex\b"), "std::shared_mutex"),
    (re.compile(r"\bstd::lock_guard\b"), "std::lock_guard"),
    (re.compile(r"\bstd::unique_lock\b"), "std::unique_lock"),
    (re.compile(r"\bstd::shared_lock\b"), "std::shared_lock"),
    (re.compile(r"\bstd::scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\bstd::condition_variable(_any)?\b"), "std::condition_variable"),
    (re.compile(r"#\s*include\s*<(mutex|shared_mutex|condition_variable)>"),
     "raw sync header include"),
]
RAW_SYNC_EXEMPT = {"src/util/sync.hpp"}

# Rule 4: stray stderr -------------------------------------------------------

STRAY_STDERR = re.compile(r"\bfprintf\s*\(\s*stderr\b|\bstd::cerr\b")
STRAY_STDERR_EXEMPT = {
    "src/util/log.cpp",              # the sink writes stderr by design
    "src/util/sync.hpp",             # FATAL paths under the logger's layer
    "src/paradyn/paradynd_main.cpp",  # CLI usage/startup errors
}

# Rule 5: raw process signalling --------------------------------------------

RAW_PROCESS_SIGNAL = re.compile(r"(?<![\w])(?:::\s*)?(kill|waitpid)\s*\(")
RAW_PROCESS_SIGNAL_EXEMPT_DIRS = ("src/proc",)
RAW_PROCESS_SIGNAL_EXEMPT = {"src/condor/master.cpp"}

# Rule 6: manual framing -----------------------------------------------------

MANUAL_FRAMING = re.compile(
    r"\.\s*encode\s*\(|\bencode_into\s*\(|\bMessage::decode\s*\(|\bpeek_length\s*\(")
MANUAL_FRAMING_EXEMPT_DIRS = ("src/net",)

# Rule 7: raw clock reads ----------------------------------------------------

RAW_CLOCK_READ = re.compile(
    r"\bstd::chrono::(steady_clock|system_clock|high_resolution_clock)\b")
RAW_CLOCK_READ_EXEMPT = {"src/util/clock.hpp"}

# Rule 3: unguarded adjacent field ------------------------------------------

MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:tdp::)?(Mutex|SharedMutex)\s+\w+\s*(\{|;)")
FIELD_DECL = re.compile(r"^\s*(?:mutable\s+)?[\w:<>,\s*&]+\s[\w]+_?\s*(\{.*\}\s*)?(=[^;]*)?;")
BLOCK_END = re.compile(r"^\s*($|\}|public:|protected:|private:|//)")


def _in_dirs(rel: str, dirs: tuple[str, ...]) -> bool:
    p = PurePosixPath(rel)
    return any(str(p).startswith(d + "/") for d in dirs)


def run_legacy_rules(files: list[tuple[str, str]], report: Report) -> None:
    """files: (repo-relative posix path, raw text) for every src/ file."""
    for rel, text in files:
        lines = text.splitlines()
        code_lines = [ln.split("//", 1)[0] for ln in lines]

        if rel not in RAW_SYNC_EXEMPT:
            for no, ln in enumerate(lines, 1):
                hit = next((name for rx, name in RAW_SYNC_PATTERNS
                            if rx.search(ln)), None)
                if hit:
                    report.suppress_or_add(
                        ln, "raw-sync", rel, no,
                        f"raw sync primitive ({hit}) outside util/sync.hpp "
                        f"— use the tdp wrappers")

        if rel not in STRAY_STDERR_EXEMPT:
            for no, code in enumerate(code_lines, 1):
                if STRAY_STDERR.search(code):
                    report.add(
                        "stray-stderr", rel, no,
                        "direct stderr write outside util/log — use a "
                        "log::Logger so output is leveled and "
                        "trace-prefixable", lines[no - 1].strip())

        if rel not in RAW_PROCESS_SIGNAL_EXEMPT and \
                not _in_dirs(rel, RAW_PROCESS_SIGNAL_EXEMPT_DIRS):
            for no, code in enumerate(code_lines, 1):
                if RAW_PROCESS_SIGNAL.search(code):
                    report.suppress_or_add(
                        lines[no - 1], "raw-process-signal", rel, no,
                        "direct kill/waitpid outside src/proc/ and "
                        "master.cpp — daemon death must flow through "
                        "proc::ProcessBackend so journals and leases "
                        "observe it")

        if not _in_dirs(rel, MANUAL_FRAMING_EXEMPT_DIRS):
            for no, code in enumerate(code_lines, 1):
                if MANUAL_FRAMING.search(code):
                    report.suppress_or_add(
                        lines[no - 1], "manual-framing", rel, no,
                        "direct Message codec call outside src/net/ — "
                        "manual framing bypasses the transports' "
                        "buffering and relay fast paths; go through "
                        "Endpoint send/receive/send_frame/receive_frame")

        if rel not in RAW_CLOCK_READ_EXEMPT:
            for no, code in enumerate(code_lines, 1):
                if RAW_CLOCK_READ.search(code):
                    report.suppress_or_add(
                        lines[no - 1], "raw-clock-read", rel, no,
                        "raw std::chrono clock outside util/clock.hpp — "
                        "read time via tdp::Clock "
                        "(RealClock::instance().now_micros()) so sim runs "
                        "stay deterministic")

        if rel not in RAW_SYNC_EXEMPT:
            i = 0
            while i < len(lines):
                if MUTEX_MEMBER.match(lines[i]):
                    j = i + 1
                    while j < len(lines) and not BLOCK_END.match(lines[j]):
                        line = lines[j]
                        if MUTEX_MEMBER.match(line):
                            break  # another mutex restarts the block
                        if FIELD_DECL.match(line) and \
                                "TDP_GUARDED_BY" not in line:
                            report.add(
                                "unguarded-adjacent-field", rel, j + 1,
                                "field adjacent to a tdp mutex member lacks "
                                "TDP_GUARDED_BY (move it below a blank-line "
                                "separator if it is deliberately unguarded)",
                                line.strip())
                        j += 1
                    i = j
                else:
                    i += 1
