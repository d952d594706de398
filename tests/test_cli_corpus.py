"""Replay of the committed CLI corpus: every line's command, run in process,
prints what it printed when the line was written (``make_cli_corpus.py``)."""

import json
import time

from make_cli_corpus import CORPUS, digest


def test_every_command_prints_what_the_corpus_recorded():
    lines = CORPUS.read_text().splitlines()
    assert len(lines) >= 3000
    start = time.perf_counter()
    for number, line in enumerate(lines, 1):
        recorded, argv = line.split(" ", 1)
        if digest(json.loads(argv)) != recorded:
            shown = argv if len(argv) <= 200 else argv[:200] + "..."
            raise AssertionError(f"{CORPUS.name} line {number} prints otherwise: {shown}")
    assert time.perf_counter() - start < 2
