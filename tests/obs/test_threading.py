"""Thread isolation of the ambient observation context (satellite).

The whole ambient design rests on :class:`contextvars.ContextVar`
semantics: installs are scoped to the calling context, fresh threads
start from the default (disabled) context, and two threads tracing
concurrently can never write into each other's recorders.
"""

import threading

from repro.multilog import MultiLogSession
from repro.obs import DISABLED, current, observe, use

SOURCE = """
level(u). level(s). order(u, s).
u[acct(alice : balance -u-> 100)].
s[acct(alice : balance -s-> 900)].
"""


def run_threads(n, work):
    """Run ``work(index)`` in n threads through a start barrier; re-raise."""
    barrier = threading.Barrier(n)
    errors = []

    def body(index):
        try:
            barrier.wait(timeout=10)
            work(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise errors[0]


class TestAmbientIsolation:
    def test_recorders_do_not_cross_threads(self):
        recorders = {}

        def work(index):
            ctx = observe()
            recorders[index] = ctx.recorder
            with use(ctx):
                for round_no in range(20):
                    with ctx.recorder.span(f"thread-{index}", round=round_no):
                        assert current() is ctx
                        with current().recorder.span("inner"):
                            pass

        run_threads(8, work)
        for index, recorder in recorders.items():
            names = {root.name for root in recorder.roots}
            assert names == {f"thread-{index}"}
            assert len(recorder.roots) == 20
            assert all(root.children[0].name == "inner"
                       for root in recorder.roots)

    def test_new_threads_start_disabled(self):
        seen = []

        with use(observe()):
            thread = threading.Thread(target=lambda: seen.append(current()))
            thread.start()
            thread.join(timeout=10)
        assert seen == [DISABLED]

    def test_use_restores_on_exit_even_nested(self):
        outer, inner = observe(), observe()
        with use(outer):
            with use(inner):
                assert current() is inner
            assert current() is outer
        assert current().recorder is not outer.recorder


class TestConcurrentSessions:
    def test_sessions_trace_independently(self):
        sessions = [MultiLogSession(SOURCE, clearance="s") for _ in range(6)]
        for index, session in enumerate(sessions):
            session.enable_telemetry()

        def work(index):
            for _ in range(3):
                answers = sessions[index].ask(
                    "s[acct(alice : balance -C-> B)] << cau")
                assert answers

        run_threads(len(sessions), work)
        for session in sessions:
            # Each session saw exactly its own three asks.
            assert session.histograms.get("query").count == 3
            roots = session.last_trace().roots
            assert [root.name for root in roots] == ["query"]

    def test_audit_trails_stay_per_session(self):
        sessions = [MultiLogSession(SOURCE, clearance="s") for _ in range(4)]
        logs = [session.enable_audit() for session in sessions]

        def work(index):
            sessions[index].ask("s[acct(alice : balance -C-> B)] << opt")

        run_threads(len(sessions), work)
        for log in logs:
            reads = log.events("cross_level_read")
            assert {(e.subject, e.object) for e in reads} == {("s", "u")}
