"""Replay the golden CLI corpus in process and compare every digest.

    python tests/golden/replay.py [MANIFEST]

Each line of the manifest (``manifest.jsonl`` beside this file by
default) is one ``totref`` command: its argument vector, its exit code and
the SHA-256 of its stdout and of its stderr.  The replay runs every
command through ``cli.main`` with both streams captured, from the root of
the repository and at a fixed terminal width, and prints each command
whose exit code or digests differ.  It exits 1 when any differs, else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = Path(__file__).resolve().parent / "manifest.jsonl"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from totref import cli  # noqa: E402


def run(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``totref argv``, run in process.

    Ring file paths resolve against the repository root, and argparse
    wraps its usage text at 80 columns whatever the terminal.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(argv, code: int, out: str, err: str) -> dict:
    """The manifest line of one command."""
    return {"argv": list(argv), "exit": code,
            "stdout": sha256(out), "stderr": sha256(err)}


def load(path=MANIFEST) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def replay(entries, runner=run) -> list[tuple[dict, dict, str, str]]:
    """(entry, what the replay recorded, stdout, stderr) for every entry
    whose exit code or digests differ."""
    differing = []
    for entry in entries:
        code, out, err = runner(entry["argv"])
        got = record(entry["argv"], code, out, err)
        if got != entry:
            differing.append((entry, got, out, err))
    return differing


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    entries = load(args[0] if args else MANIFEST)
    start = time.perf_counter()
    differing = replay(entries)
    elapsed = time.perf_counter() - start
    for entry, got, out, err in differing:
        print(json.dumps(entry["argv"]))
        for key in ("exit", "stdout", "stderr"):
            if entry[key] != got[key]:
                print(f"  {key}: {entry[key]} -> {got[key]}")
        print("  new stdout: " + json.dumps(out))
        print("  new stderr: " + json.dumps(err))
    print(f"{len(entries)} commands, {len(differing)} differing, "
          f"{elapsed:.1f} s")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
