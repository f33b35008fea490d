"""FaultPlan unit tests: matching, counting, determinism, wiring."""

import pytest

from repro.datalog import evaluate, parse_program
from repro.errors import (
    DataCorruptionError,
    FaultInjectedError,
    TransientFaultError,
    is_transient,
)
from repro.obs import ObsContext, TraceRecorder, use
from repro.resilience import FaultPlan, FaultSpec, InjectingRecorder

PROGRAM = """
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
"""


class TestMatching:
    def test_exact_point(self):
        assert FaultSpec("evaluate").matches("evaluate")
        assert not FaultSpec("evaluate").matches("stratify")

    def test_indexed_family(self):
        spec = FaultSpec("stratum[*]")
        assert spec.matches("stratum[0]")
        assert spec.matches("stratum[12]")
        assert not spec.matches("round[0]")
        assert not spec.matches("stratum")

    def test_literal_brackets_not_a_character_class(self):
        # fnmatch would read [0] as a class; ours must match literally.
        assert FaultSpec("round[*]").matches("round[3]")

    def test_wildcard_everything(self):
        assert FaultSpec("*").matches("anything-at-all")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("evaluate", action="explode")
        with pytest.raises(ValueError):
            FaultSpec("evaluate", error="catastrophic")


class TestFiring:
    def test_transient_raise_and_counters(self):
        plan = FaultPlan()
        spec = plan.arm("evaluate", error="transient")
        with pytest.raises(TransientFaultError) as excinfo:
            plan.on_span("evaluate")
        assert excinfo.value.point == "evaluate"
        assert is_transient(excinfo.value)
        assert (spec.hits, spec.fired) == (1, 1)
        # times=1: consumed, second hit passes through.
        plan.on_span("evaluate")
        assert (spec.hits, spec.fired) == (2, 1)
        assert plan.history == [("evaluate", "raise")]

    def test_permanent_and_strategy_and_corrupt(self):
        plan = FaultPlan()
        plan.arm("a", error="permanent")
        # No failure kind sends an ask to another plan: "strategy" is gone.
        with pytest.raises(ValueError, match="unknown fault error kind"):
            plan.arm("b", error="strategy")
        plan.arm("c", action="corrupt")
        with pytest.raises(FaultInjectedError) as permanent:
            plan.on_span("a")
        assert not is_transient(permanent.value)
        with pytest.raises(DataCorruptionError) as excinfo:
            plan.on_span("c")
        assert is_transient(excinfo.value)

    def test_after_skips_initial_hits(self):
        plan = FaultPlan()
        plan.arm("p", after=2)
        plan.on_span("p")
        plan.on_span("p")
        with pytest.raises(TransientFaultError):
            plan.on_span("p")

    def test_times_none_fires_forever(self):
        plan = FaultPlan()
        plan.arm("p", times=None)
        for _ in range(5):
            with pytest.raises(TransientFaultError):
                plan.on_span("p")

    def test_delay_action_sleeps(self):
        slept = []
        plan = FaultPlan(sleep=slept.append)
        plan.arm("p", action="delay", delay_s=0.25)
        plan.on_span("p")  # must not raise
        assert slept == [0.25]

    def test_seeded_probability_is_deterministic(self):
        def firings(seed):
            plan = FaultPlan(seed=seed)
            plan.arm("p", probability=0.5, times=None)
            out = []
            for index in range(40):
                try:
                    plan.on_span("p")
                    out.append(0)
                except TransientFaultError:
                    out.append(1)
            return out

        assert firings(7) == firings(7)
        assert firings(7) != firings(8)
        assert 0 < sum(firings(7)) < 40

    def test_reset_rewinds_counters_history_and_rng(self):
        plan = FaultPlan(seed=3)
        spec = plan.arm("p", probability=0.5, times=None)
        first = []
        for _ in range(10):
            try:
                plan.on_span("p")
                first.append(0)
            except TransientFaultError:
                first.append(1)
        plan.reset()
        assert (spec.hits, spec.fired) == (0, 0)
        assert plan.history == []
        second = []
        for _ in range(10):
            try:
                plan.on_span("p")
                second.append(0)
            except TransientFaultError:
                second.append(1)
        assert first == second

    def test_disarm(self):
        plan = FaultPlan()
        plan.arm("p")
        plan.arm("q")
        assert plan.disarm("p") == 1
        plan.on_span("p")  # no longer armed
        assert plan.disarm() == 1  # drop everything
        plan.on_span("q")


class TestObsContextWiring:
    def test_context_wraps_recorder(self):
        plan = FaultPlan()
        ctx = ObsContext(faults=plan)
        assert isinstance(ctx.recorder, InjectingRecorder)
        assert ctx.faults is plan
        assert ctx.enabled  # faults alone enable the context

    def test_injection_reaches_engine_spans(self):
        plan = FaultPlan()
        plan.arm("stratum[*]", error="permanent")
        with use(ObsContext(faults=plan)):
            with pytest.raises(FaultInjectedError):
                evaluate(parse_program(PROGRAM))
        assert plan.history == [("stratum[0]", "raise")]

    def test_tracing_still_works_through_the_wrapper(self):
        plan = FaultPlan()  # armed with nothing: pure pass-through
        recorder = TraceRecorder()
        with use(ObsContext(recorder, faults=plan)):
            evaluate(parse_program(PROGRAM))
        names = [root.name for root in recorder.roots]
        assert "evaluate" in names
        assert recorder.find("stratum[0]")

    def test_injected_raise_leaves_no_open_span(self):
        plan = FaultPlan()
        plan.arm("stratum[*]", error="permanent")
        recorder = TraceRecorder()
        with use(ObsContext(recorder, faults=plan)):
            with pytest.raises(FaultInjectedError):
                evaluate(parse_program(PROGRAM))
        assert recorder._stack == []
        recorder.pretty()  # renderable, no half-open nodes
