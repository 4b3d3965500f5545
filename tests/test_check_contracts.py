"""Tests for predictor contract checking (repro.check.contracts)."""

import random

import pytest

from repro.check.contracts import (
    ContractCheckedPredictor,
    ContractViolation,
    check_determinism,
    check_kernel_coverage,
    check_predictor_classes,
    check_registry,
    iter_predictor_classes,
    run_contract_suite,
    state_digest,
)
from repro.predictors.base import BranchPredictor
from repro.predictors.twolevel import GsharePredictor
from repro.workloads.suite import load_benchmark


@pytest.fixture(scope="module")
def trace():
    return load_benchmark("compress", length=300)


class _WellBehaved(BranchPredictor):
    """Minimal contract-conforming predictor."""

    name = "_test-well-behaved"

    def __init__(self):
        self._last = True

    def predict(self, pc, target):
        return self._last

    def update(self, pc, target, taken):
        self._last = taken


class _MutatesInPredict(BranchPredictor):
    """Breaks state purity: predict() trains a counter."""

    name = "_test-mutates-in-predict"

    def __init__(self):
        self._count = 0

    def predict(self, pc, target):
        self._count += 1  # contract violation
        return True

    def update(self, pc, target, taken):
        pass


class _Nondeterministic(BranchPredictor):
    """Breaks replay determinism: every instance flips its own coins."""

    name = "_test-nondeterministic"

    def __init__(self):
        self._rng = random.Random()  # check: ignore - the point of the test

    def predict(self, pc, target):
        return self._rng.random() < 0.5

    def update(self, pc, target, taken):
        pass


class TestIntrospectiveAudit:
    def test_repo_predictor_classes_are_clean(self):
        assert check_predictor_classes() == []

    def test_every_discovered_class_is_from_repro(self):
        classes = iter_predictor_classes()
        assert classes, "discovery found no predictor classes"
        assert all(cls.__module__.startswith("repro.") for cls in classes)

    def test_placeholder_name_is_flagged(self):
        class Placeholder(BranchPredictor):
            def predict(self, pc, target):
                return True

            def update(self, pc, target, taken):
                pass

        diagnostics = check_predictor_classes([Placeholder])
        assert [diag.code for diag in diagnostics] == ["PC002"]

    def test_duplicate_class_names_are_flagged(self):
        class First(BranchPredictor):
            name = "_test-dup"

            def predict(self, pc, target):
                return True

            def update(self, pc, target, taken):
                pass

        class Second(First):
            name = "_test-dup"

        diagnostics = check_predictor_classes([First, Second])
        assert [diag.code for diag in diagnostics] == ["PC003"]

    def test_abstract_residue_is_flagged(self):
        class Forgotten(BranchPredictor):
            name = "_test-forgotten"

            def predict(self, pc, target):
                return True
            # update() missing

        diagnostics = check_predictor_classes([Forgotten])
        assert [diag.code for diag in diagnostics] == ["PC001"]

    def test_registry_is_clean(self):
        assert check_registry() == []


class TestStateDigest:
    def test_digest_changes_with_state(self):
        predictor = GsharePredictor(history_bits=8)
        before = state_digest(predictor)
        predictor.update(0x1000, 0x1010, True)
        assert state_digest(predictor) != before

    def test_digest_stable_without_mutation(self):
        predictor = GsharePredictor(history_bits=8)
        assert state_digest(predictor) == state_digest(predictor)


class TestContractCheckedPredictor:
    def test_clean_predictor_passes(self, trace):
        wrapped = ContractCheckedPredictor(_WellBehaved())
        wrapped.simulate(trace)
        wrapped.finish()
        assert wrapped.predict_calls == len(trace)
        assert wrapped.update_calls == len(trace)

    def test_real_predictor_passes(self, trace):
        wrapped = ContractCheckedPredictor(GsharePredictor(history_bits=8))
        wrapped.simulate(trace)
        wrapped.finish()

    def test_predict_mutation_is_caught(self, trace):
        wrapped = ContractCheckedPredictor(_MutatesInPredict())
        with pytest.raises(ContractViolation, match="mutated predictor state"):
            wrapped.simulate(trace)

    def test_double_update_is_caught(self):
        wrapped = ContractCheckedPredictor(_WellBehaved())
        wrapped.predict(0x1000, 0x1010)
        wrapped.update(0x1000, 0x1010, True)
        with pytest.raises(ContractViolation, match="without a matching"):
            wrapped.update(0x1000, 0x1010, True)

    def test_predict_without_update_is_caught(self):
        wrapped = ContractCheckedPredictor(_WellBehaved())
        wrapped.predict(0x1000, 0x1010)
        with pytest.raises(ContractViolation, match="before update"):
            wrapped.predict(0x1004, 0x1014)

    def test_finish_flags_unresolved_branch(self):
        wrapped = ContractCheckedPredictor(_WellBehaved())
        wrapped.predict(0x1000, 0x1010)
        with pytest.raises(ContractViolation, match="never ran"):
            wrapped.finish()


class TestDeterminism:
    def test_deterministic_predictor_passes(self, trace):
        assert check_determinism(_WellBehaved, trace) is None

    def test_nondeterministic_predictor_fails(self, trace):
        fault = check_determinism(_Nondeterministic, trace)
        assert fault is not None and "disagreed" in fault


class TestContractSuite:
    def test_clean_factory_yields_no_diagnostics(self, trace):
        assert run_contract_suite(_WellBehaved, trace) == []

    def test_mutating_factory_yields_pc006(self, trace):
        diagnostics = run_contract_suite(_MutatesInPredict, trace)
        assert "PC006" in {diag.code for diag in diagnostics}

    def test_nondeterministic_factory_yields_pc008(self, trace):
        diagnostics = run_contract_suite(_Nondeterministic, trace)
        assert "PC008" in {diag.code for diag in diagnostics}


def simulate_orphan(predictor, trace):
    """A kernel no registry predictor routes through."""
    raise AssertionError("no predictor should reach this kernel")


class TestKernelCoverage:
    def test_every_exported_kernel_is_reached(self, trace):
        assert check_kernel_coverage(trace) == []

    def test_unreached_kernel_is_flagged(self, trace, monkeypatch):
        import repro.sim as sim

        monkeypatch.setattr(sim, "simulate_orphan", simulate_orphan, raising=False)
        monkeypatch.setattr(sim, "__all__", [*sim.__all__, "simulate_orphan"])
        diagnostics = check_kernel_coverage(trace)
        assert [(d.code, d.location) for d in diagnostics] == [
            ("PC010", "repro.sim.simulate_orphan")
        ]
        # The recorders are gone again: the real kernels are restored.
        import repro.sim.kernels_global as kernels_global

        assert kernels_global.simulate_gshare is sim.simulate_gshare
