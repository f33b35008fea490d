"""Off-the-clock correctness check of every served request.

Each ask's answers are compared, as sets, with what a serial
``MultiLogSession`` answers at the version the response reported.  The
serial session replays the source text and then the run's acknowledged
asserts in version order, so "the database at version v" is exactly
what the server had committed when it answered at v.  A refused,
errored, degraded or incomplete response is a failure, as is an answer
set that differs from the serial one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.multilog.session import MultiLogSession

from harness import Recorder, canonical
from workloads import Spec


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


class Oracle:
    """Serial reference answers, cached across the servers of one run."""

    def __init__(self, spec: Spec, source: str):
        self.spec = spec
        self.source = source
        #: ``(applied asserts, clearance, query)`` -> canonical answers.
        self._cache: dict[tuple, frozenset] = {}

    def check(self, recorder: Recorder, base_version: int,
              verdict: Verdict) -> Verdict:
        """Check every sample of one server's life into ``verdict``."""
        asserts: dict[int, str] = {}
        asks: dict[int, list] = defaultdict(list)
        for sample in recorder.samples:
            verdict.attempted += 1
            if not sample.served:
                verdict.fail(f"{sample.op} {sample.text!r} not served: "
                             f"{sample.code or 'incomplete'}")
            elif sample.op == "assert":
                asserts[sample.version] = sample.text
            else:
                asks[sample.version].append(sample)
        root: MultiLogSession | None = None
        sessions: dict[str, MultiLogSession] = {}
        applied: list[str] = []
        pending = sorted(asserts.items())
        for version in sorted(asks):
            while pending and pending[0][0] <= version:
                applied.append(pending.pop(0)[1])
                if root is not None:
                    root.assert_clause(applied[-1])
            if version - base_version != len(applied):
                for sample in asks[version]:
                    verdict.fail(f"ask at version {version} does not follow "
                                 "the acknowledged asserts")
                continue
            signature = frozenset(applied)
            for sample in asks[version]:
                level = self.spec.clearances[sample.conn]
                key = (signature, level, sample.text)
                expected = self._cache.get(key)
                if expected is None:
                    if root is None:
                        root = MultiLogSession(self.source,
                                               backend=self.spec.backend)
                        for clause in applied:
                            root.assert_clause(clause)
                    session = sessions.get(level)
                    if session is None:
                        session = sessions[level] = root.with_clearance(level)
                    expected = self._cache[key] = canonical(
                        session.ask(sample.text, engine=self.spec.engine))
                answers = recorder.answers_of(sample)
                if answers != expected:
                    verdict.fail(
                        f"{sample.text!r} at {level}, version {version}: "
                        f"{len(answers)} answers, serial session "
                        f"gives {len(expected)}")
        return verdict
