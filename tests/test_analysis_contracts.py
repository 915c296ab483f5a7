"""Tests for the theorem-contract checker (repro.analysis.contracts)."""

import io

import pytest

from repro.analysis import (CheckedDecompositionEngine, ContractStats,
                            ContractViolation)
from repro.bdd import BDD
from repro.boolfn import ISF, parse
from repro.decomp import (EXOR_GATE, OR_GATE, DecompositionError,
                          bi_decompose, exor_decomposable, or_decomposable)
from repro.pipeline import PipelineConfig, Session


def _session(mgr):
    return Session(config=PipelineConfig(check_contracts=True), mgr=mgr)


def _specs(mgr):
    return {
        "f": ISF.from_csf(parse(mgr, "a & b | c & d")),
        "g": ISF.from_csf(parse(mgr, "(a ^ b) & (c | d)")),
    }


class TestCheckedCleanRuns:
    def test_session_records_contract_stats(self):
        mgr = BDD(["a", "b", "c", "d"])
        session = _session(mgr)
        assert isinstance(session._ensure_engine(),
                          CheckedDecompositionEngine)
        record = {}
        result = session.decompose_specs(_specs(mgr), record=record)
        assert result.netlist.outputs
        contracts = record["contracts"]
        assert contracts["total_checks"] > 0
        assert contracts["total_violations"] == 0
        assert session.stats_snapshot()["contract_totals"][
            "total_checks"] == contracts["total_checks"]

    def test_benchmark_under_check(self):
        from repro.bench.registry import get
        mgr, specs = get("9sym").build()
        result = bi_decompose(specs, verify=True, check=True)
        assert result.functions

    def test_check_leaves_the_callers_config_unchecked(self):
        # check=True applies to that call only: a later call with the
        # same config object must not run checked.
        config = PipelineConfig()
        before = config.as_dict()
        mgr = BDD(["a", "b", "c", "d"])
        assert bi_decompose(_specs(mgr), config=config, check=True).functions
        assert config.check_contracts is False
        assert config.as_dict() == before

    def test_check_flag_off_uses_plain_engine(self):
        mgr = BDD(["a", "b"])
        session = Session(mgr=mgr)
        engine = session._ensure_engine()
        assert not isinstance(engine, CheckedDecompositionEngine)

    def test_events_stay_silent_on_clean_run(self):
        mgr = BDD(["a", "b", "c", "d"])
        session = _session(mgr)
        session.decompose_specs(_specs(mgr))
        assert not session.events.named("contract_violated")


class TestViolations:
    def test_same_manager_contract(self):
        mgr = BDD(["a", "b"])
        session = _session(mgr)
        engine = session._ensure_engine()
        foreign = BDD(["a", "b"])
        isf = ISF.from_csf(parse(foreign, "a & b"))
        with pytest.raises(ContractViolation) as excinfo:
            engine.decompose(isf)
        assert excinfo.value.contract == "same-manager"
        events = session.events.named("contract_violated")
        assert events and events[0]["contract"] == "same-manager"

    def test_poisoned_cache_node_detected(self):
        mgr = BDD(["a", "b", "c"])
        session = _session(mgr)
        spec = ISF.from_csf(parse(mgr, "a & b | c"))
        session.decompose_specs({"f": spec})
        engine = session.engine
        assert engine.cache.size() > 0
        # Corrupt every cached entry: point it at netlist node 0 (the
        # input 'a'), which implements none of the cached functions.
        for bucket in engine.cache._by_support.values():
            bucket[:] = [(csf, 0) for csf, _node in bucket]
        again = ISF.from_csf(parse(mgr, "a & b | c"))
        with pytest.raises(ContractViolation) as excinfo:
            session.decompose_specs({"f2": again})
        assert excinfo.value.contract == "cache-node-function"
        assert excinfo.value.detail["node"] == 0
        events = session.events.named("contract_violated")
        assert events
        assert events[-1]["contract"] == "cache-node-function"

    def test_incompatible_cache_hit_detected_directly(self):
        mgr = BDD(["a", "b"])
        session = _session(mgr)
        engine = session._ensure_engine()
        isf = ISF.from_csf(parse(mgr, "a & b"))
        wrong = parse(mgr, "a | b")  # outside the (Q, ~R) interval
        with pytest.raises(ContractViolation) as excinfo:
            engine._validate_cache_hit(isf, wrong, 0, False)
        assert excinfo.value.contract == "cache-compatible"

    def test_result_interval_contract_directly(self):
        mgr = BDD(["a", "b"])
        session = _session(mgr)
        engine = session._ensure_engine()
        isf = ISF.from_csf(parse(mgr, "a & b"))
        with pytest.raises(ContractViolation) as excinfo:
            engine._check(isf, parse(mgr, "a | b"), "OR")
        assert excinfo.value.contract == "result-interval"

    def test_violation_is_typed_decomposition_error(self):
        violation = ContractViolation("or-residue", "boom",
                                      detail={"k": 1})
        assert isinstance(violation, DecompositionError)
        assert violation.contract == "or-residue"
        assert violation.detail == {"k": 1}
        assert "or-residue" in str(violation)


class TestWeakStepContracts:
    def _engine(self, mgr):
        return _session(mgr)._ensure_engine()

    def test_useless_weak_or_violates(self):
        # For f = a & b, exists(a, R) is the whole space, so the weak-OR
        # residual Q & ~exists(a, R) injects no don't-cares: the Table 1
        # termination argument breaks and the contract must fire.
        mgr = BDD(["a", "b"])
        engine = self._engine(mgr)
        from repro.decomp import OR_GATE
        isf = ISF.from_csf(parse(mgr, "a & b"))
        with pytest.raises(ContractViolation) as excinfo:
            engine._on_step(isf, [0, 1], OR_GATE, [0], None, isf)
        assert excinfo.value.contract == "weak-usefulness"
        assert engine.contract_stats.as_dict()["violations"] == {
            "weak-usefulness": 1}

    def test_useless_weak_and_violates(self):
        mgr = BDD(["a", "b"])
        engine = self._engine(mgr)
        from repro.decomp import AND_GATE
        isf = ISF.from_csf(parse(mgr, "a | b"))
        with pytest.raises(ContractViolation) as excinfo:
            engine._on_step(isf, [0, 1], AND_GATE, [0], None, isf)
        assert excinfo.value.contract == "weak-usefulness"

    def test_weak_xa_outside_support_violates(self):
        mgr = BDD(["a", "b", "c"])
        engine = self._engine(mgr)
        from repro.decomp import OR_GATE
        isf = ISF.from_csf(parse(mgr, "a & b"))
        with pytest.raises(ContractViolation) as excinfo:
            engine._on_step(isf, [0, 1], OR_GATE, [2], None, isf)
        assert excinfo.value.contract == "disjoint-sets"

    def test_useful_weak_or_passes(self):
        # f = a | b & c genuinely weak-OR-decomposes around XA={a}.
        mgr = BDD(["a", "b", "c"])
        engine = self._engine(mgr)
        from repro.decomp import OR_GATE
        isf = ISF.from_csf(parse(mgr, "a | b & c"))
        engine._on_step(isf, [0, 1, 2], OR_GATE, [0], None, isf)
        doc = engine.contract_stats.as_dict()
        assert doc["checks"]["weak-usefulness"] == 1
        assert doc["total_violations"] == 0


class TestMemoIndependence:
    """Mutation canary: the contracts re-prove every step themselves.
    No check keeps a verdict memo that could vouch for a grouping, so
    each test hands the contract a non-decomposable grouping directly
    and expects it to fire."""

    def test_poisoned_or_memo_cannot_vouch(self):
        mgr = BDD(["a", "b"])
        engine = _session(mgr)._ensure_engine()
        isf = ISF.from_csf(parse(mgr, "a ^ b"))
        assert not or_decomposable(isf, [0], [1])
        assert not hasattr(mgr, "_cache_ctx_or")
        with pytest.raises(ContractViolation) as excinfo:
            engine._on_step(isf, [0, 1], OR_GATE, [0], [1], isf)
        assert excinfo.value.contract == "or-residue"

    def test_poisoned_exor_memos_cannot_vouch(self):
        # A completely specified AND (Fig. 4's cofactor test) and an
        # interval whose care plane c=0 is an AND (Theorem 2's pair
        # test): neither is EXOR-decomposable with XA={a}, XB={b}.
        mgr = BDD(["a", "b", "c"])
        engine = _session(mgr)._ensure_engine()
        for isf in (ISF.from_csf(parse(mgr, "a & b")),
                    ISF(parse(mgr, "a & b & ~c"),
                        parse(mgr, "~(a & b) & ~c"))):
            assert not exor_decomposable(isf, [0], [1])
            assert not hasattr(mgr, "_cache_ctx_exor1")
            assert not hasattr(mgr, "_cache_ctx_exor")
            with pytest.raises(ContractViolation) as excinfo:
                engine._on_step(isf, [0, 1, 2], EXOR_GATE, [0], [1], isf)
            assert excinfo.value.contract == "exor-check"


class TestContractStats:
    def test_counting_and_serialisation(self):
        stats = ContractStats()
        stats.checked("same-manager")
        stats.checked("same-manager")
        stats.checked("or-residue")
        stats.violated("or-residue")
        doc = stats.as_dict()
        assert doc["checks"] == {"same-manager": 2, "or-residue": 1}
        assert doc["violations"] == {"or-residue": 1}
        assert doc["total_checks"] == 3
        assert doc["total_violations"] == 1


PLA = """\
.i 3
.o 1
.ilb a b c
.ob f
.p 2
11- 1
--1 1
.e
"""


class TestCheckCLI:
    def test_decompose_check_flag(self, tmp_path):
        from repro.cli import main
        pla = tmp_path / "in.pla"
        pla.write_text(PLA)
        out = io.StringIO()
        assert main(["decompose", str(pla), "-o",
                     str(tmp_path / "out.blif"), "--check"],
                    stdout=out) == 0

    def test_contract_stats_round_trip_stats_json(self, tmp_path):
        import json
        from repro.cli import main
        pla = tmp_path / "in.pla"
        pla.write_text(PLA)
        stats_path = tmp_path / "stats.json"
        assert main(["decompose", str(pla), "-o",
                     str(tmp_path / "out.blif"), "--check",
                     "--stats-json", str(stats_path)],
                    stdout=io.StringIO()) == 0
        doc = json.loads(stats_path.read_text())
        stage = next(s for s in doc["stages"]
                     if s["stage"] == "decompose")
        contracts = stage["contracts"]
        # The embedded document is exactly ContractStats.as_dict():
        # nonzero per-contract counters plus the two totals.
        assert set(contracts) == {"checks", "violations",
                                  "total_checks", "total_violations"}
        assert contracts["total_checks"] == sum(
            contracts["checks"].values())
        assert contracts["total_checks"] > 0
        assert contracts["total_violations"] == 0
        assert contracts["violations"] == {}
        assert all(count > 0 for count in contracts["checks"].values())
