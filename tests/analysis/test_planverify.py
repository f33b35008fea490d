"""The plan verifier: every codegen'd plan is checked before its exec.

Three layers of guarantee:

* the golden differential corpus compiles with zero ML014/ML015 under
  both row and batch codegen (plus random workload programs);
* seeded mutations -- corrupted access paths, tampered generated source,
  reordered guards, un-deduped batch merges -- each trip the right code;
* the wiring raises :class:`PlanVerificationError` from ``compile``
  *before* ``exec``, so an unsound plan can never fire.
"""

import gc
import sys
import threading

import pytest

from repro.analysis.planverify import verify_plan, verify_plan_source
from repro.datalog import evaluate, parse_program
from repro.datalog.engine import greedy_join_order, reorder_body
from repro.datalog.plan import (
    _BatchEmitter,
    _Emitter,
    compile_batch_rule,
    compile_rule,
    plan_verification_enabled,
    set_plan_verification,
)
from repro.errors import PlanVerificationError
from repro.workloads import random_datalog_program

from ..datalog.test_compiled_differential import CORNER_CASES


def _prepared_rules(text):
    """Rules of ``text`` with bodies in execution order, as the engine
    prepares them before compilation."""
    program = parse_program(text)
    out = []
    for rule in program.rules:
        body = reorder_body(greedy_join_order(rule.body), rule)
        out.append(type(rule)(rule.head, body))
    return out


CORPUS = list(CORNER_CASES) + [
    random_datalog_program(6 + seed, "random", seed=seed) for seed in range(4)
]


class TestGoldenCorpus:
    @pytest.mark.parametrize("text", CORPUS)
    def test_row_plans_verify_clean(self, text):
        for rule in _prepared_rules(text):
            plan = compile_rule(rule, {rule.head.predicate})
            report = verify_plan(plan, "row")
            assert report.ok, report.render_text()

    @pytest.mark.parametrize("text", CORPUS)
    def test_batch_plans_verify_clean(self, text):
        for rule in _prepared_rules(text):
            plan = compile_batch_rule(rule, {rule.head.predicate})
            report = verify_plan(plan, "batch")
            assert report.ok, report.render_text()

    @pytest.mark.parametrize("text", CORPUS)
    def test_verification_enabled_end_to_end(self, text):
        # The default-on wiring: both native plans evaluate the corpus
        # with the verifier live on every compiled variant.
        assert plan_verification_enabled()
        program = parse_program(text)
        evaluate(program, backend="dict")
        evaluate(program, backend="columnar")


class TestStructuralChecks:
    def _rule(self, text):
        [rule] = _prepared_rules(text)
        return rule

    def test_probe_on_unbound_position_is_ml014(self):
        rule = self._rule("e(a, b). p(X, Y) :- e(X, Y), e(Y, Z).")
        plan = compile_rule(rule)
        paths = [dict(p) for p in plan.access_paths]
        # corrupt: claim the second probe also keys on its unbound column
        paths[1]["positions"] = (0, 1)
        report = verify_plan_source(rule, plan.source, paths, "row")
        assert "ML014" in report.codes()

    def test_guard_before_binding_is_ml015(self):
        rule = self._rule("n(1). small(X) :- n(X), X < 3.")
        plan = compile_rule(rule)
        # corrupt: swap the body so the guard precedes its binder, as a
        # broken optimizer reordering would
        swapped = type(rule)(rule.head, (rule.body[1], rule.body[0]))
        paths = [plan.access_paths[1], plan.access_paths[0]]
        report = verify_plan_source(swapped, plan.source, paths, "row")
        assert "ML015" in report.codes()

    def test_wrong_access_kind_is_ml014(self):
        rule = self._rule("p(a). q(X) :- p(X).")
        plan = compile_rule(rule)
        paths = [{"literal": repr(rule.body[0]), "access": "guard"}]
        report = verify_plan_source(rule, plan.source, paths, "row")
        assert "ML014" in report.codes()

    def test_pipeline_body_mismatch_is_ml014(self):
        rule = self._rule("p(a). q(X) :- p(X).")
        plan = compile_rule(rule)
        report = verify_plan_source(rule, plan.source, (), "row")
        assert "ML014" in report.codes()

    def test_duplicate_literal_is_ml016_dead_op(self):
        rule = self._rule("p(a). q(X) :- p(X), p(X).")
        plan = compile_rule(rule)
        report = verify_plan(plan, "row")
        assert report.ok  # sound, just wasteful
        assert "ML016" in report.codes()

    def test_tautological_guard_is_ml016(self):
        rule = self._rule("p(a). q(X) :- p(X), X = X.")
        plan = compile_rule(rule)
        report = verify_plan(plan, "row")
        assert report.ok
        assert "ML016" in report.codes()

    def test_constant_guard_is_ml016_only_when_always_true(self):
        # Both plan kinds keep a guard over two constants.  An always-true
        # one is a dead op; an always-false one is left to ML019, and an
        # incomparable pair is left to the runtime, which raises.
        for text, dead in (("p(a). q(X) :- p(X), 1 < 2.", True),
                           ("p(a). q(X) :- p(X), 2 < 1.", False),
                           ("p(a). q(X) :- p(X), a < 1.", False)):
            rule = self._rule(text)
            for plan, kind in ((compile_rule(rule), "row"),
                               (compile_batch_rule(rule), "batch")):
                report = verify_plan(plan, kind)
                assert report.ok, (text, kind)
                assert ("ML016" in report.codes()) is dead, (text, kind)
                if dead:
                    assert any(d.message.startswith("constant guard")
                               for d in report.diagnostics), (text, kind)


class TestSourceChecks:
    def _plan(self, text, batch=False):
        [rule] = _prepared_rules(text)
        return (compile_batch_rule(rule) if batch else compile_rule(rule)), rule

    def test_unbound_local_in_source_is_ml014(self):
        plan, rule = self._plan("e(a, b). p(X, Y) :- e(X, Y).")
        tampered = plan.source.replace("_append((v0, v1,))",
                                       "_append((v0, v9,))")
        assert tampered != plan.source
        report = verify_plan_source(rule, tampered, plan.access_paths, "row")
        assert "ML014" in report.codes()

    def test_wrong_head_arity_is_ml014(self):
        plan, rule = self._plan("e(a, b). p(X, Y) :- e(X, Y).")
        tampered = plan.source.replace("_append((v0, v1,))", "_append((v0,))")
        report = verify_plan_source(rule, tampered, plan.access_paths, "row")
        assert "ML014" in report.codes()

    def test_batch_merge_without_dedup_is_ml014(self):
        plan, rule = self._plan("e(a, b). e(b, c). p(Y) :- e(X, Y).", batch=True)
        assert "return {" in plan.source
        tampered = plan.source.replace("return {", "return [", 1)
        tampered = tampered[::-1].replace("}", "]", 1)[::-1]
        report = verify_plan_source(rule, tampered, plan.access_paths, "batch")
        assert "ML014" in report.codes()

    def test_unparseable_source_is_ml014(self):
        plan, rule = self._plan("p(a). q(X) :- p(X).")
        report = verify_plan_source(rule, "def _fire(db:", plan.access_paths,
                                    "row")
        assert "ML014" in report.codes()


class TestWiring:
    """ML014 must fire *before* exec: the mutated plan never runs."""

    @pytest.fixture(autouse=True)
    def _verification_on(self):
        previous = set_plan_verification(True)
        yield
        set_plan_verification(previous)

    def _mutate_emitter(self, monkeypatch, emitter_class, needle, poison):
        original = emitter_class.emit

        def corrupted(self, delta_position):
            source = original(self, delta_position)
            assert needle in source, source
            return source.replace(needle, poison)

        monkeypatch.setattr(emitter_class, "emit", corrupted)

    def test_row_mutation_raises_before_exec(self, monkeypatch):
        [rule] = _prepared_rules("e(a, b). p(X, Y) :- e(X, Y).")
        self._mutate_emitter(monkeypatch, _Emitter,
                             "_append((v0, v1,))", "_append((v0, v9,))")
        with pytest.raises(PlanVerificationError) as exc:
            compile_rule(rule)
        assert "ML014" in str(exc.value)
        assert exc.value.report is not None
        assert "ML014" in exc.value.report.codes()

    def test_batch_mutation_raises_before_exec(self, monkeypatch):
        [rule] = _prepared_rules("e(a, b). p(Y) :- e(X, Y).")
        # poison the head projection's comprehension variable: the
        # projection now reads a name the pipeline never bound
        self._mutate_emitter(monkeypatch, _BatchEmitter,
                             "for t in batch", "for q in batch")
        with pytest.raises(PlanVerificationError):
            compile_batch_rule(rule)

    def test_mutation_never_execs(self, monkeypatch):
        # If verification fired before exec, the poisoned source was
        # never compiled into a module: a syntactically-broken plan
        # raises PlanVerificationError, not SyntaxError.
        [rule] = _prepared_rules("p(a). q(X) :- p(X).")
        self._mutate_emitter(monkeypatch, _Emitter, "return _out",
                             "return _out +")
        with pytest.raises(PlanVerificationError):
            compile_rule(rule)

    def test_disabled_verification_skips_the_check(self, monkeypatch):
        [rule] = _prepared_rules("p(a). q(X) :- p(X).")
        set_plan_verification(False)
        # same corruption as above: without the verifier the plan execs
        # (and happily misbehaves) -- proving the gate is what saved us
        self._mutate_emitter(monkeypatch, _Emitter,
                             "_append((v0,))", "_append((v0, v0,))")
        plan = compile_rule(rule)
        assert plan.fire is not None

    def test_memoization_skips_repeat_verification(self, monkeypatch):
        import repro.analysis.planverify as planverify

        [rule] = _prepared_rules("p(a). q(X) :- p(X).")
        compile_rule(rule)  # populates the source memo

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("re-verified a memoized plan")

        monkeypatch.setattr(planverify, "verify_plan_source", explode)
        compile_rule(rule)  # identical source: memo hit, no re-verify


class TestConcurrentVerification:
    """Executor threads verify new plans concurrently.  CPython 3.11's
    ``ast.parse`` keeps its recursion depth in interpreter-wide state;
    a garbage-collector finalizer that runs Python code mid-parse lets
    another thread's parse interleave, and both fail with
    ``SystemError: AST constructor recursion depth mismatch``.  The
    verifier serializes its parse, so none may fail."""

    THREADS = 4
    PARSES = 150

    def test_parallel_parses_never_raise(self):
        [rule] = _prepared_rules(
            "e(a, b). f(b, c). p(X, Z) :- e(X, Y), f(Y, Z), X != Z.")
        plan = compile_batch_rule(rule, {rule.head.predicate})

        class Garbage:
            def __init__(self):
                self.cycle = self

            def __del__(self):
                sum(range(50))

        failures = []

        def verify():
            for _ in range(self.PARSES):
                [Garbage() for _ in range(5)]
                try:
                    report = verify_plan_source(rule, plan.source,
                                                plan.access_paths, "batch")
                except SystemError as exc:
                    failures.append(exc)
                else:
                    assert report.ok, report.render_text()

        interval, threshold = sys.getswitchinterval(), gc.get_threshold()
        sys.setswitchinterval(1e-6)
        gc.set_threshold(10, 1, 1)
        try:
            threads = [threading.Thread(target=verify)
                       for _ in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
            gc.set_threshold(*threshold)
            gc.collect()
        assert not failures, f"{len(failures)} parses failed: {failures[0]!r}"
