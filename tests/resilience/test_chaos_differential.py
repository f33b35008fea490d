"""Chaos differential suite (satellite): fault-injected vs fault-free.

For ~50 generated workloads, inject one fault at every span point in
turn, across {dict, columnar} x {native, naive}, and assert the
resilient path either returns answers identical to the fault-free run,
a correctly flagged :class:`~repro.resilience.PartialResult`, or -- for
a permanent fault that fired -- an error, never answers.  Workloads and
fault plans are seeded (``CHAOS_SEED``, default 0) so a CI failure
replays locally bit-for-bit.

Plus the kill-and-recover test: SIGKILL a subprocess mid-``assert_clause``
loop and verify journal replay restores a consistent database containing
every acknowledged clause.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.datalog import evaluate, parse_program
from repro.errors import FaultInjectedError
from repro.multilog import MultiLogSession
from repro.obs import EvaluationBudget, ObsContext, use
from repro.resilience import FaultPlan, PartialResult, ResilientExecutor
from repro.workloads.generator import random_datalog_program, random_multilog_database

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

# 3 shapes x 3 sizes x 5 seeds = 45 Datalog workloads; the session
# matrix below adds 6 MultiLog workloads (51 total).
DATALOG_WORKLOADS = [
    (shape, n_nodes, CHAOS_SEED * 100 + seed)
    for shape in ("chain", "tree", "random")
    for n_nodes in (4, 7, 10)
    for seed in range(5)
]

SESSION_WORKLOADS = [
    (n_tuples, belief_rules, CHAOS_SEED * 100 + seed)
    for n_tuples, belief_rules in ((4, 1), (6, 2), (8, 3))
    for seed in range(2)
]

#: Engine-level span points to fault, one at a time.  A point that a
#: given plan never announces simply yields a fault-free run, which
#: the differential assertion covers too.
ENGINE_POINTS = ("evaluate", "stratify", "stratum[*]", "round[*]", "rule-fire")
#: evaluate() options for {dict, columnar} x {native, naive}.
PLANS = [{"backend": backend, "naive": naive}
         for backend in ("dict", "columnar") for naive in (False, True)]
SESSION_POINTS = ("query", "tau-translate", "stratum[*]", "fixpoint")


def canon(answers):
    return sorted(tuple(sorted(a.items())) for a in answers)


#: retried to the fault-free answers (transient, corrupt), or an error
#: (permanent).
FAULT_KINDS = ("transient", "corrupt", "permanent")


def one_fault_plan(point, kind):
    plan = FaultPlan(seed=CHAOS_SEED)
    if kind == "corrupt":
        plan.arm(point, action="corrupt")
    else:
        plan.arm(point, error=kind)
    return plan


@pytest.mark.parametrize("shape,n_nodes,seed", DATALOG_WORKLOADS)
def test_datalog_chaos_differential(shape, n_nodes, seed):
    program = parse_program(random_datalog_program(n_nodes, shape, seed=seed))
    for options in PLANS:
        baseline = evaluate(parse_program(
            random_datalog_program(n_nodes, shape, seed=seed)),
            **options).rows("path")
        for point in ENGINE_POINTS:
            for kind in FAULT_KINDS:
                plan = one_fault_plan(point, kind)
                executor = ResilientExecutor()
                where = (f"{shape}/{n_nodes}/seed={seed}: {kind} fault at "
                         f"{point} ({options})")
                try:
                    with use(ObsContext(faults=plan)):
                        db = executor.evaluate(program, **options)
                except FaultInjectedError:
                    assert kind == "permanent" and plan.history, \
                        f"{where} raised"
                    continue
                assert not (kind == "permanent" and plan.history), \
                    f"{where} fired, yet answers were returned"
                assert db.rows("path") == baseline, \
                    f"{where} changed the answers"


@pytest.mark.parametrize("n_tuples,belief_rules,seed", SESSION_WORKLOADS)
def test_session_chaos_differential(n_tuples, belief_rules, seed):
    def fresh_session():
        db = random_multilog_database(
            n_tuples, belief_rules=belief_rules, seed=seed)
        return MultiLogSession(db, clearance="t")

    query = "t[p(K : a1 -C-> V)] << cau"
    for engine in ("operational", "reduction"):
        baseline = canon(fresh_session().ask(query, engine=engine))
        for point in SESSION_POINTS:
            for kind in ("transient", "permanent"):
                plan = one_fault_plan(point, kind)
                session = fresh_session()  # cold caches: faults can land
                session.arm_faults(plan)
                executor = ResilientExecutor()
                where = (f"n={n_tuples}/rules={belief_rules}/seed={seed}: "
                         f"{kind} fault at {point} ({engine})")
                try:
                    answers = executor.ask(session, query, engine=engine)
                except FaultInjectedError:
                    assert kind == "permanent" and plan.history, \
                        f"{where} raised"
                    continue
                assert not (kind == "permanent" and plan.history), \
                    f"{where} fired, yet answers were returned"
                assert canon(answers) == baseline, \
                    f"{where} changed the answers"


@pytest.mark.parametrize("shape,seed", [("chain", CHAOS_SEED), ("tree", CHAOS_SEED + 1)])
def test_budget_chaos_yields_flagged_partials(shape, seed):
    program = parse_program(random_datalog_program(10, shape, seed=seed))
    baseline = evaluate(parse_program(
        random_datalog_program(10, shape, seed=seed))).rows("path")
    executor = ResilientExecutor(allow_partial=True,
                                 budget=EvaluationBudget(max_rounds=1))
    result = executor.evaluate(program)
    assert isinstance(result, PartialResult)
    assert result.complete is False
    # Negation-free workloads: partial answers are a subset.  (The flag is
    # the contract -- a shallow workload may happen to finish in the one
    # allowed round; the deep chain provably cannot.)
    assert result.database.rows("path") <= baseline
    if shape == "chain":
        assert result.database.rows("path") < baseline


# ---------------------------------------------------------------------------
# Kill-and-recover: SIGKILL mid-assert, then journal replay.

CHILD = textwrap.dedent("""
    import sys
    from repro.multilog import MultiLogSession

    SOURCE = "level(u). level(s). order(u, s)."
    session = MultiLogSession(SOURCE, clearance="s", journal=sys.argv[1])
    for index in range(10_000):
        session.assert_clause(f"u[acct(k{index} : name -u-> k{index})].")
        session.assert_clause(f"u[acct(k{index} : balance -u-> {index})].")
        print(index, flush=True)  # ack only after the fsynced append
""")


def test_sigkill_mid_assert_recovers_every_acked_clause(tmp_path):
    journal = tmp_path / "wal.jsonl"
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(journal)],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": "src"}, cwd=os.getcwd())
    acked = []
    try:
        # Collect a few acknowledged asserts, then kill without warning.
        while len(acked) < 5:
            line = child.stdout.readline()
            assert line, "child exited before acking any asserts"
            acked.append(int(line))
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL

    # The child died mid-loop (possibly mid-append: a torn tail is fine);
    # recovery must replay every acknowledged clause and re-check both
    # Definition 5.3 and 5.4.
    session = MultiLogSession.recover(journal, clearance="s",
                                      require_consistent=True)
    assert session.recovery_report.ok
    for index in acked:
        answers = session.ask(f"u[acct(k{index} : name -C-> V)] << cau")
        assert {"C": "u", "V": f"k{index}"} in answers


def test_recovered_session_keeps_journaling(tmp_path):
    journal = tmp_path / "wal.jsonl"
    source = "level(u). level(s). order(u, s)."
    first = MultiLogSession(source, clearance="s", journal=journal)
    first.assert_clause("u[acct(a : name -u-> a)].")
    first.journal.close()

    second = MultiLogSession.recover(journal, clearance="s")
    second.assert_clause("u[acct(b : name -u-> b)].")
    second.journal.close()

    third = MultiLogSession.recover(journal, clearance="s")
    for key in ("a", "b"):
        assert third.ask(f"u[acct({key} : name -C-> V)] << cau") == [
            {"C": "u", "V": key}]
