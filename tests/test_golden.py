"""The golden CLI corpus: every command's exit code and output digests,
pinned in tests/golden/manifest.jsonl.  Tier-1 replays a fixed subset;
``python tests/golden/replay.py`` replays all of it."""

import pytest

from golden import replay
from totref import cli


def _mode(argv) -> str:
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return "json"
    return "probe" if "--probe" in argv else "text"


def _subset(entries) -> list[dict]:
    """The first command of each verb, exit code and output mode."""
    first = {}
    for entry in entries:
        key = (tuple(entry["argv"][:2]), entry["exit"], _mode(entry["argv"]))
        first.setdefault(key, entry)
    return list(first.values())


ENTRIES = replay.load()
SUBSET = _subset(ENTRIES)


def test_the_corpus_covers_every_verb_and_exit_code():
    assert len(ENTRIES) >= 2000
    assert len({tuple(e["argv"]) for e in ENTRIES}) == len(ENTRIES)
    verbs = {tuple(e["argv"][:2]) for e in SUBSET}
    assert set(cli._HANDLERS) <= verbs
    assert {e["exit"] for e in SUBSET} == {0, 1, 2, 3}
    assert {e["exit"] for e in ENTRIES} == {0, 1, 2, 3}


@pytest.fixture(scope="module")
def outputs():
    """(exit code, stdout, stderr) of each subset command, run once."""
    return {tuple(e["argv"]): replay.run(e["argv"]) for e in SUBSET}


def test_the_subset_replays_byte_for_byte(outputs):
    assert replay.replay(SUBSET, lambda argv: outputs[tuple(argv)]) == []


@pytest.mark.parametrize("stream", [1, 2])
@pytest.mark.parametrize("where", [0, 0.5, 1])
def test_one_flipped_byte_fails_the_replay(outputs, stream, where):
    entries = [e for e in SUBSET if outputs[tuple(e["argv"])][stream]]
    assert entries

    def flipped(argv):
        result = list(outputs[tuple(argv)])
        text = result[stream]
        at = min(int(where * len(text)), len(text) - 1)
        result[stream] = text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1:]
        return tuple(result)

    differing = replay.replay(entries, flipped)
    assert [entry for entry, *_ in differing] == entries


def test_a_changed_exit_code_fails_the_replay(outputs):
    def shifted(argv):
        code, out, err = outputs[tuple(argv)]
        return code + 1, out, err

    assert len(replay.replay(SUBSET, shifted)) == len(SUBSET)
