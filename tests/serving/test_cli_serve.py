"""Smoke test of ``multilog serve``: start, one ask, SIGTERM drain.

The CLI runs in a subprocess on an ephemeral port; the test reads the
bound address off its ``multilog serving on host:port`` line, asks once
through :class:`~repro.serving.ServingClient`, then sends SIGTERM and
expects a clean drain and exit code 0.
"""

from __future__ import annotations

import asyncio
import os
import queue
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

from repro.serving import ServingClient

REPO = Path(__file__).resolve().parents[2]
MISSION = REPO / "examples" / "mission.mlog"
BOUND = re.compile(r"^multilog serving on (\S+):(\d+) ")


def test_serve_starts_answers_and_drains_on_sigterm(tmp_path):
    env = {**os.environ, "PYTHONUNBUFFERED": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(MISSION),
         "--port", "0", "--journal", str(tmp_path / "wal.jsonl")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    lines: queue.Queue = queue.Queue()
    reader = threading.Thread(
        target=lambda: [lines.put(line) for line in proc.stdout], daemon=True)
    reader.start()
    try:
        first = lines.get(timeout=60)
        bound = BOUND.match(first)
        assert bound, first
        host, port = bound.group(1), int(bound.group(2))

        async def ask():
            async with await ServingClient.connect(host, port, "s") as client:
                return await client.ask(
                    "s[mission(voyager : objective -C-> V)] << cau")

        assert asyncio.run(ask()) == [{"C": "s", "V": "spying"}]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    reader.join(timeout=10)
    rest = []
    while not lines.empty():
        rest.append(lines.get())
    assert "drained cleanly\n" in rest, rest
