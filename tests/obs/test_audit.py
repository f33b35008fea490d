"""The MLS security-audit trail (PR 5 tentpole).

The headline property is the lattice itself: every ``cross_level_read``
the trail records must have ``object <= subject <= clearance`` -- no
read-up, ever, on either engine, including under chaos (fault-injected
retry/fallback runs replaying the PR 4 workloads).
"""

import json
import os

import pytest

from repro.multilog import MultiLogSession
from repro.multilog.extensions import filtered_cells, surprise_cells
from repro.obs import AUDIT_KINDS, AuditEvent, AuditLog, NULL_AUDIT
from repro.resilience import FaultPlan, ResilientExecutor
from repro.workloads.generator import random_multilog_database

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

SOURCE = """
level(u). level(c). level(s). order(u, c). order(c, s).
u[acct(alice : balance -u-> 100)].
c[acct(alice : balance -c-> 500)].
s[acct(alice : balance -s-> 900)].
"""


class TestAuditLog:
    def test_identical_events_dedup_with_count(self):
        log = AuditLog()
        for _ in range(3):
            log.emit("cross_level_read", subject="s", object="u",
                     mode="opt", predicate="acct")
        assert len(log) == 1
        assert log.count(next(iter(log))) == 3
        assert "x3" in log.render()

    def test_order_is_first_occurrence(self):
        log = AuditLog()
        log.emit("cross_level_read", subject="s", object="u")
        log.emit("override", subject="s", object="u")
        log.emit("cross_level_read", subject="s", object="u")
        assert [e.kind for e in log] == ["cross_level_read", "override"]

    def test_unknown_kind_rejected(self):
        log = AuditLog()
        with pytest.raises(ValueError):
            log.emit("made_up_kind", subject="s")

    def test_jsonl_round_trips(self):
        log = AuditLog()
        log.emit("override", subject="s", object="u", mode="cau",
                 predicate="acct", attribute="balance", overriding_cls="s")
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["kind"] == "override"
        assert record["attribute"] == "balance"
        assert record["count"] == 1

    def test_null_audit_is_disabled_and_inert(self):
        assert not NULL_AUDIT.enabled
        NULL_AUDIT.emit("cross_level_read", subject="s")  # no-op, no error
        assert len(NULL_AUDIT) == 0

    def test_multiplicity_equals_repeated_single_emits(self):
        events = [
            ("cross_level_read", dict(subject="s", object="u", mode="opt",
                                      predicate="acct"), 3),
            ("override", dict(subject="s", object="u", mode="cau",
                              predicate="acct", attribute="balance"), 1),
            ("cross_level_read", dict(subject="s", object="c", mode="opt",
                                      predicate="acct"), 2),
            ("cross_level_read", dict(subject="s", object="u", mode="opt",
                                      predicate="acct"), 4),
        ]
        batched, single = AuditLog(), AuditLog()
        for kind, fields, times in events:
            batched.emit(kind, times=times, **fields)
            for _ in range(times):
                single.emit(kind, **fields)
        assert list(batched) == list(single)
        assert [batched.count(e) for e in batched] == [7, 1, 2]
        assert [batched.count(e) for e in batched] == [single.count(e) for e in single]
        assert batched.to_dicts() == single.to_dicts()
        assert batched.to_jsonl() == single.to_jsonl()
        assert batched.render() == single.render()

    @pytest.mark.parametrize("times", [0, -1])
    def test_non_positive_multiplicity_rejected(self, times):
        log = AuditLog()
        with pytest.raises(ValueError):
            log.emit("cross_level_read", subject="s", object="u", times=times)
        assert len(log) == 0

    def test_null_audit_accepts_multiplicity(self):
        NULL_AUDIT.emit("cross_level_read", subject="s", object="u", times=5)
        assert len(NULL_AUDIT) == 0
        assert NULL_AUDIT.to_jsonl() == ""

    def test_event_is_hashable_and_frozen(self):
        event = AuditEvent(kind="assert", subject="s")
        assert {event: 1}[event] == 1
        with pytest.raises(AttributeError):
            event.kind = "recover"

    def test_kinds_are_closed(self):
        assert set(AUDIT_KINDS) == {
            "cross_level_read", "override", "filter_suppression",
            "surprise_story", "assert", "recover", "slow_capture"}


def test_concurrent_emits_lose_no_occurrence():
    """One server-wide log takes emits from every executor thread; the
    count update is a read-modify-write and must not lose occurrences."""
    import sys
    import threading

    log = AuditLog()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def emit_many(index):
            for step in range(3000):
                log.emit("cross_level_read", subject="s", object="u",
                         mode="opt", predicate=f"p{step % 3}")

        threads = [threading.Thread(target=emit_many, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(log) == 3
    assert [record["count"] for record in log.to_dicts()] == [8000, 8000, 8000]


class TestSessionAudit:
    def make(self):
        session = MultiLogSession(SOURCE, clearance="s")
        return session, session.enable_audit()

    def test_disabled_by_default(self):
        session = MultiLogSession(SOURCE, clearance="s")
        session.ask("s[acct(alice : balance -C-> B)] << opt")
        assert session.audit_log() is None

    def test_enable_is_idempotent(self):
        session, log = self.make()
        assert session.enable_audit() is log

    def test_optimistic_read_down_is_recorded(self):
        session, log = self.make()
        session.ask("s[acct(alice : balance -C-> B)] << opt")
        reads = log.events("cross_level_read")
        assert {(e.subject, e.object) for e in reads} >= {("s", "u"), ("s", "c")}
        assert all(e.mode == "opt" for e in reads)

    def test_firm_belief_reads_nothing_across_levels(self):
        session, log = self.make()
        session.ask("s[acct(alice : balance -C-> B)] << fir")
        assert not [e for e in log.events("cross_level_read")
                    if e.mode == "fir"]

    def test_cautious_override_is_recorded(self):
        session, log = self.make()
        session.ask("s[acct(alice : balance -C-> B)] << cau")
        overrides = log.events("override")
        assert overrides, "cau at s must override the u and c cells"
        for event in overrides:
            assert event.mode == "cau"
            assert event.detail_dict()["attribute"] == "balance"
            # The overridden cell is strictly below the subject.
            assert session.lattice.leq(event.object, event.subject)
            assert event.object != event.subject

    def test_reduction_engine_audits_via_model_walk(self):
        session, log = self.make()
        session.ask("s[acct(alice : balance -C-> B)] << opt", engine="reduction")
        assert log.events("cross_level_read")

    def test_sibling_sessions_walk_each_snapshot_once(self, monkeypatch):
        """The reduction trail is projected off the shared model once per
        (snapshot, log), however the asks spread over pooled sessions."""
        from repro.multilog.reduction import ReducedProgram

        walks: list[int] = []
        real = ReducedProgram.audit_model

        def counting(reduced, *args):
            walks.append(id(reduced))
            return real(reduced, *args)

        monkeypatch.setattr(ReducedProgram, "audit_model", counting)
        first = MultiLogSession(SOURCE, clearance="s")
        second = first.with_clearance("s")
        log = first.enable_audit()
        second.enable_audit(log)
        query = "s[acct(alice : balance -C-> B)] << cau"
        for session in (first, second, first, second):
            session.ask(query, engine="reduction")
        assert len(walks) == 1
        one_walk = {event: log.count(event) for event in log.events("override")}
        first.assert_clause("u[acct(bob : balance -u-> 1)].")
        for session in (second, first, second):
            session.ask(query, engine="reduction")
        assert len(walks) == 2
        assert len(set(walks)) == 2  # one walk per version's snapshot
        assert {event: log.count(event) for event in one_walk} == {
            event: 2 * count for event, count in one_walk.items()}

    def test_reduction_trail_is_independent_of_the_hash_seed(self):
        """The same reduction asks write byte-identical trails, and give
        identically ordered answers, under two string hash seeds (the
        model's row sets iterate differently)."""
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "from repro.multilog import MultiLogSession\n"
            "from repro.workloads.generator import random_multilog_database\n"
            "db = random_multilog_database(12, belief_rules=2, seed=3)\n"
            "root = MultiLogSession(db, clearance='t')\n"
            "log = root.enable_audit()\n"
            "for level in ('t', 's', 'c'):\n"
            "    session = root.with_clearance(level)\n"
            "    session.enable_audit(log)\n"
            "    for mode in ('opt', 'cau'):\n"
            "        print(session.ask(f'{level}[p(K : a1 -C-> V)] << {mode}',\n"
            "                          engine='reduction'))\n"
            "print(log.to_jsonl())\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        trails = []
        for seed in ("5", "9"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            trails.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=60).stdout)
        assert trails[0].count("cross_level_read") > 1
        assert trails[0] == trails[1]

    def test_filter_suppression_and_surprise(self):
        # The docs/OBSERVABILITY.md worked example: the u-observer sees
        # that enterprise exists but not where it goes.
        session = MultiLogSession("""
            level(u). level(s). order(u, s).
            s[mission(enterprise : ship -u-> enterprise;
                      destination -s-> talos)].
        """, clearance="s")
        log = session.enable_audit()
        from repro.obs import ObsContext, use

        with use(ObsContext(audit=log)):  # ambient-context path
            filtered_cells(session.engine, "u")
        suppressions = log.events("filter_suppression")
        assert [(e.subject, e.object, e.detail_dict()["attribute"])
                for e in suppressions] == [("u", "s", "destination")]

        surprise_cells(session.engine, "u", audit=log)  # explicit path
        surprises = log.events("surprise_story")
        assert [(e.subject, e.object, e.detail_dict()["attribute"],
                 e.detail_dict()["shown_level"])
                for e in surprises] == [("u", "s", "destination", "u")]

    def test_assert_is_audited(self):
        session, log = self.make()
        session.assert_clause("u[acct(bob : balance -u-> 7)].")
        events = log.events("assert")
        assert len(events) == 1
        assert events[0].subject == "u"
        assert events[0].predicate == "acct"
        assert "bob" in events[0].detail_dict()["clause"]

    def test_recover_seeds_the_trail(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        first = MultiLogSession("level(u). level(s). order(u, s).",
                                clearance="s", journal=journal)
        first.assert_clause("u[acct(a : name -u-> a)].")
        first.journal.close()
        recovered = MultiLogSession.recover(journal, clearance="s")
        log = recovered.enable_audit()
        events = log.events("recover")
        assert len(events) == 1
        assert events[0].detail_dict()["consistent"] in ("True", "False")

    def test_audit_survives_beta_cache_hits(self):
        # The second identical ask serves beta from the memo; the audit
        # trail must still witness the access (dedup'd, count bumped).
        session, log = self.make()
        session.ask("s[acct(alice : balance -C-> B)] << opt")
        first = {event: log.count(event) for event in log.events("cross_level_read")}
        session.ask("s[acct(alice : balance -C-> B)] << opt")
        for event, count in first.items():
            assert log.count(event) >= count


# ---------------------------------------------------------------------------
# The lattice property under chaos: replay the PR 4 chaos workloads with
# audit enabled and check no recorded read ever violates no-read-up.

CHAOS_WORKLOADS = [
    (n_tuples, belief_rules, CHAOS_SEED * 100 + seed)
    for n_tuples, belief_rules in ((4, 1), (6, 2), (8, 3))
    for seed in range(2)
]


@pytest.mark.parametrize("n_tuples,belief_rules,seed", CHAOS_WORKLOADS)
def test_chaos_audit_respects_the_lattice(n_tuples, belief_rules, seed):
    query = "t[p(K : a1 -C-> V)] << cau"
    for engine in ("operational", "reduction"):
        for point in ("query", "tau-translate", "fixpoint"):
            db = random_multilog_database(
                n_tuples, belief_rules=belief_rules, seed=seed)
            session = MultiLogSession(db, clearance="t")
            log = session.enable_audit()
            plan = FaultPlan(seed=CHAOS_SEED)
            plan.arm(point, error="transient")
            session.arm_faults(plan)
            ResilientExecutor().ask(session, query, engine=engine)
            lattice = session.lattice
            for event in log.events("cross_level_read"):
                assert lattice.leq(event.object, event.subject), (
                    f"{engine}/{point}: read-up recorded: {event.render()}")
                assert lattice.leq(event.subject, session.clearance), (
                    f"{engine}/{point}: subject above clearance: {event.render()}")
            for event in log.events("override"):
                assert lattice.leq(event.object, event.subject)
