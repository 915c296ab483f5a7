"""Tests for certificate traces and the offline certifier.

Covers the io.cert format helpers, the engine-side tracer, the
pipeline/CLI wiring (``--certificates`` / ``--certify`` / ``repro
certify``), determinism across the parallel executor, and — most
importantly — that the independent certifier accepts fresh artifacts
and rejects tampered ones with counterexamples.
"""

import copy
import importlib
import io
import json
import os
import stat

import pytest

from repro.analysis import certify, certify_file
from repro.bdd import BDD
from repro.bench import get as get_bench
from repro.boolfn import parse
from repro.cli import main
from repro.io import (CertificateError, cert_path_for, load_cert, load_pla,
                      named_cover, read_text, rebuild_cover, save_cert,
                      validate_cover, write_pla)
from repro.pipeline import (Pipeline, PipelineConfig, PipelineInput,
                            Session, run_batch_parallel)

BENCHMARKS = ("rd53", "xor5", "misex1")


def _write_bench_pla(tmp_path, name):
    mgr, specs = get_bench(name).build()
    path = tmp_path / (name + ".pla")
    write_pla(specs, list(mgr.var_names), path=str(path))
    return path


def _decompose_with_cert(tmp_path, name, **config_kwargs):
    """Decompose one benchmark with certificates; returns paths + run."""
    pla_path = _write_bench_pla(tmp_path, name)
    blif_path = tmp_path / (name + ".blif")
    config = PipelineConfig(emit_certificates=True, **config_kwargs)
    with Session(config=config) as session:
        run = Pipeline.standard().run(
            session,
            PipelineInput(path=str(pla_path), emit_path=str(blif_path)))
        events = session.events
    return pla_path, blif_path, run, events


class TestCoverHelpers:
    def test_named_cover_round_trips(self):
        mgr = BDD(["a", "b", "c"])
        fn = parse(mgr, "a & b | ~c")
        cover = named_cover(fn)
        assert validate_cover(cover) is cover
        rebuilt = rebuild_cover(mgr, cover)
        assert rebuilt.node == fn.node

    def test_constants(self):
        mgr = BDD(["a"])
        assert named_cover(mgr.fn_false()) == []
        assert named_cover(mgr.fn_true()) == [{}]
        assert rebuild_cover(mgr, []).is_false()
        assert rebuild_cover(mgr, [{}]).is_true()

    def test_edits_to_a_cover_never_reach_a_later_call(self):
        # The per-manager memo holds immutable tuples; every call
        # hands out fresh lists and dicts.
        mgr = BDD(["a", "b", "c"])
        fn = parse(mgr, "a & b | ~c")
        first = named_cover(fn)
        expected = [dict(cube) for cube in first]
        first[0]["zz"] = 1
        first[-1].clear()
        first.append({"a": 0})
        assert named_cover(fn) == expected

    def test_one_isop_per_function_until_clear_caches(self, monkeypatch):
        # The package re-exports the function under the module's name.
        isop_module = importlib.import_module("repro.bdd.isop")
        calls = []
        real = isop_module.isop

        def spy(mgr, lower, upper):
            calls.append((lower, upper))
            return real(mgr, lower, upper)
        monkeypatch.setattr(isop_module, "isop", spy)
        mgr = BDD(["a", "b", "c"])
        fn = parse(mgr, "a & b | ~c")
        cover = named_cover(fn)
        assert named_cover(fn) == cover
        assert named_cover(~fn) != cover
        assert calls == [(fn.node, fn.node), ((~fn).node, (~fn).node)]
        mgr.clear_caches()
        assert mgr._cache_named_isop == {}
        assert named_cover(fn) == cover
        assert len(calls) == 3

    def test_rebuild_rejects_unknown_variable(self):
        mgr = BDD(["a"])
        with pytest.raises(CertificateError):
            rebuild_cover(mgr, [{"zz": 1}])

    def test_validate_rejects_bad_shapes(self):
        for bad in ({"a": 1}, [["a"]], [{"a": 2}], [{3: 1}],
                    [{"a": True}], [{"a": False}]):
            with pytest.raises(CertificateError):
                validate_cover(bad)

    def test_cert_path_for(self):
        assert cert_path_for("out/rd53.blif") == "out/rd53.cert.json"
        assert cert_path_for("noext") == "noext.cert.json"


class TestCertificateEmission:
    def test_cert_written_beside_blif(self, tmp_path):
        _pla, blif_path, run, events = _decompose_with_cert(tmp_path,
                                                            "rd53")
        cert_path = cert_path_for(str(blif_path))
        assert run.certificate_path == cert_path
        doc = load_cert(cert_path)
        assert doc["format"] == "repro-decomposition-certificate"
        assert doc["version"] == 1
        assert doc["label"] == "rd53"
        assert set(doc["outputs"]) == set(run.specs)
        emitted = events.named("certificate_emitted")
        assert emitted and emitted[0]["steps"] == len(doc["steps"])
        assert run.stats_json()["certificate"] == cert_path

    def test_steps_are_dense_and_topological(self, tmp_path):
        _pla, blif_path, _run, _events = _decompose_with_cert(tmp_path,
                                                              "rd53")
        doc = load_cert(cert_path_for(str(blif_path)))
        from repro.io.cert import LEAF_THEOREMS, THEOREM_GATES
        for index, step in enumerate(doc["steps"]):
            assert step["id"] == index
            assert step["gate"] == THEOREM_GATES[step["theorem"]]
            assert all(child < index for child in step["children"])
            if step["theorem"] in LEAF_THEOREMS:
                assert step["children"] == []
            else:
                assert len(step["children"]) == 2

    def test_no_cert_without_flag(self, tmp_path):
        pla_path = _write_bench_pla(tmp_path, "xor5")
        blif_path = tmp_path / "xor5.blif"
        with Session(config=PipelineConfig()) as session:
            run = Pipeline.standard().run(
                session,
                PipelineInput(path=str(pla_path),
                              emit_path=str(blif_path)))
        assert run.certificate_path is None
        assert not (tmp_path / "xor5.cert.json").exists()

    def test_cert_under_checked_engine(self, tmp_path):
        # --check swaps in CheckedDecompositionEngine; the tracer must
        # ride along unchanged.
        pla, blif, run, _events = _decompose_with_cert(
            tmp_path, "xor5", check_contracts=True)
        report = certify_file(str(pla), str(blif), run.certificate_path)
        assert report.ok

    def test_emit_certificates_in_config_dict(self):
        config = PipelineConfig(emit_certificates=True)
        assert config.as_dict()["emit_certificates"] is True
        assert PipelineConfig().as_dict()["emit_certificates"] is False


class TestCertifierAccepts:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_fresh_certificates_accepted(self, tmp_path, name):
        pla, blif, run, _events = _decompose_with_cert(tmp_path, name)
        report = certify_file(str(pla), str(blif), run.certificate_path)
        assert report.ok, report.format_text()
        assert report.steps_checked == len(
            load_cert(run.certificate_path)["steps"])
        assert report.outputs_checked > 0
        assert report.checks > report.steps_checked
        assert "CERTIFIED" in report.format_text()

    def test_report_as_dict(self, tmp_path):
        pla, blif, run, _events = _decompose_with_cert(tmp_path, "rd53")
        doc = certify_file(str(pla), str(blif),
                           run.certificate_path).as_dict()
        assert doc["ok"] is True
        assert doc["failures"] == []
        assert sum(doc["theorems"].values()) == doc["steps_checked"]


class _Tampered:
    """Fixture helper: one decomposed rd53 plus mutation utilities."""

    def __init__(self, tmp_path):
        self.pla, self.blif, self.run, _events = _decompose_with_cert(
            tmp_path, "rd53")
        self.cert = self.run.certificate_path
        self.doc = load_cert(self.cert)
        self.tmp_path = tmp_path

    def certify_doc(self, doc):
        path = str(self.tmp_path / "tampered.cert.json")
        save_cert(path, doc)
        return certify_file(str(self.pla), str(self.blif), path)


@pytest.fixture
def tampered(tmp_path):
    return _Tampered(tmp_path)


class TestCertifierRejects:
    def test_single_bit_cover_mutation(self, tampered):
        doc = copy.deepcopy(tampered.doc)
        for step in doc["steps"]:
            if step["f"] and step["f"][0]:
                name = sorted(step["f"][0])[0]
                step["f"][0][name] = 1 - step["f"][0][name]
                break
        report = tampered.certify_doc(doc)
        assert not report.ok
        checks = {failure.check for failure in report.failures}
        assert checks & {"component-interval", "composition",
                         "spec-interval", "blif-output"}
        assert any(failure.counterexample for failure in report.failures)

    def test_gate_swap(self, tampered):
        doc = copy.deepcopy(tampered.doc)
        step = next(s for s in doc["steps"] if s["theorem"] == "thm1-or")
        step["gate"] = "AND"
        report = tampered.certify_doc(doc)
        assert not report.ok
        assert any(failure.check == "step-structure"
                   and failure.step == step["id"]
                   for failure in report.failures)

    def test_coordinated_theorem_and_gate_swap(self, tampered):
        # Swapping both theorem and gate keeps the structure check
        # quiet; the composition (and the re-proved residue) must
        # catch it with a counterexample.
        doc = copy.deepcopy(tampered.doc)
        step = next(s for s in doc["steps"] if s["theorem"] == "thm1-or")
        step["theorem"] = "thm1-and-dual"
        step["gate"] = "AND"
        report = tampered.certify_doc(doc)
        assert not report.ok
        assert any(failure.counterexample for failure in report.failures)

    def test_inconsistent_interval(self, tampered):
        doc = copy.deepcopy(tampered.doc)
        step = doc["steps"][0]
        step["r"] = list(step["q"])  # Q & R == Q != 0
        report = tampered.certify_doc(doc)
        assert any(failure.check == "interval-consistent"
                   and failure.counterexample
                   for failure in report.failures)

    def test_unknown_variable(self, tampered):
        doc = copy.deepcopy(tampered.doc)
        doc["steps"][0]["f"] = [{"not_a_var": 1}]
        report = tampered.certify_doc(doc)
        assert any(failure.check == "cover"
                   for failure in report.failures)

    def test_missing_output_root(self, tampered):
        doc = copy.deepcopy(tampered.doc)
        name = sorted(doc["outputs"])[0]
        del doc["outputs"][name]
        report = tampered.certify_doc(doc)
        assert any(failure.check == "output-root"
                   and failure.output == name
                   for failure in report.failures)

    def test_unknown_output_claimed(self, tampered):
        doc = copy.deepcopy(tampered.doc)
        doc["outputs"]["ghost"] = {"step": 0, "output": "ghost"}
        report = tampered.certify_doc(doc)
        assert any(failure.check == "output-root"
                   and failure.output == "ghost"
                   for failure in report.failures)

    def test_blif_mismatch_via_api(self, tampered):
        _data, mgr, specs = load_pla(str(tampered.pla))
        report = certify(tampered.doc, mgr, specs, blif_outputs={})
        assert any(failure.check == "blif-output"
                   for failure in report.failures)

    def test_stale_certificate_against_other_spec(self, tampered):
        other_pla = _write_bench_pla(tampered.tmp_path, "misex1")
        report = certify_file(str(other_pla), str(tampered.blif),
                              tampered.cert)
        assert not report.ok

    def test_newer_version_rejected_at_load(self, tampered):
        doc = copy.deepcopy(tampered.doc)
        doc["version"] = 99
        path = str(tampered.tmp_path / "v99.cert.json")
        save_cert(path, doc)
        with pytest.raises(CertificateError):
            load_cert(path)

    def test_bool_version_rejected_at_load(self, tampered):
        # bool is an int subclass: JSON true must not pass as version 1.
        doc = copy.deepcopy(tampered.doc)
        doc["version"] = True
        path = str(tampered.tmp_path / "vtrue.cert.json")
        save_cert(path, doc)
        with pytest.raises(CertificateError, match="version"):
            load_cert(path)

    def test_saved_with_plain_open_mode(self, tmp_path):
        old_mask = os.umask(0o022)
        try:
            path = save_cert(str(tmp_path / "c.cert.json"),
                             {"format": "x"})
        finally:
            os.umask(old_mask)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cert.json"
        path.write_text("{not json")
        with pytest.raises(CertificateError):
            load_cert(str(path))
        with pytest.raises(CertificateError):
            load_cert(str(tmp_path / "absent.cert.json"))


class TestParallelDeterminism:
    def test_jobs1_and_jobs2_certificates_identical(self, tmp_path):
        paths = [_write_bench_pla(tmp_path, name)
                 for name in ("rd53", "xor5")]
        outs = {}
        for jobs in (1, 2):
            out_dir = tmp_path / ("out%d" % jobs)
            out_dir.mkdir()
            sources = [PipelineInput(path=str(p),
                                     emit_path=str(out_dir / (p.stem
                                                              + ".blif")))
                       for p in paths]
            config = PipelineConfig(emit_certificates=True)
            result = run_batch_parallel(sources, config=config, jobs=jobs)
            assert not result.failures
            assert result.report()["certificates"] == len(paths)
            outs[jobs] = out_dir
        for p in paths:
            name = p.stem
            cert1 = read_text(str(outs[1] / (name + ".cert.json")))
            cert2 = read_text(str(outs[2] / (name + ".cert.json")))
            assert cert1 == cert2
            assert (read_text(str(outs[1] / (name + ".blif")))
                    == read_text(str(outs[2] / (name + ".blif"))))

    def test_worker_certificates_certify_in_parent(self, tmp_path):
        pla = _write_bench_pla(tmp_path, "xor5")
        (tmp_path / "par").mkdir()
        blif = tmp_path / "par" / "xor5.blif"
        result = run_batch_parallel(
            [PipelineInput(path=str(pla), emit_path=str(blif))],
            config=PipelineConfig(emit_certificates=True), jobs=2)
        run = result[0]
        assert run.certificate_path
        assert run.stats_json()["certificate"] == run.certificate_path
        assert certify_file(str(pla), str(blif),
                            run.certificate_path).ok


class TestCertifyCLI:
    def _emit(self, tmp_path, name="rd53", extra=()):
        pla = _write_bench_pla(tmp_path, name)
        blif = tmp_path / (name + ".blif")
        rc = main(["decompose", str(pla), "-o", str(blif),
                   "--certificates"] + list(extra), stdout=io.StringIO())
        assert rc == 0
        return pla, blif, cert_path_for(str(blif))

    def test_certify_subcommand_accepts(self, tmp_path):
        pla, blif, cert = self._emit(tmp_path)
        out = io.StringIO()
        assert main(["certify", str(pla), str(blif), cert],
                    stdout=out) == 0
        assert "CERTIFIED" in out.getvalue()

    def test_certify_subcommand_json_report(self, tmp_path):
        pla, blif, cert = self._emit(tmp_path, "xor5")
        report_path = tmp_path / "report.json"
        assert main(["certify", str(pla), str(blif), cert,
                     "--json", str(report_path)],
                    stdout=io.StringIO()) == 0
        doc = json.loads(report_path.read_text())
        assert doc["ok"] is True

    def test_certify_subcommand_rejects_mutation(self, tmp_path):
        pla, blif, cert = self._emit(tmp_path)
        doc = load_cert(cert)
        for step in doc["steps"]:
            if step["f"] and step["f"][0]:
                name = sorted(step["f"][0])[0]
                step["f"][0][name] = 1 - step["f"][0][name]
                break
        save_cert(cert, doc)
        out = io.StringIO()
        assert main(["certify", str(pla), str(blif), cert],
                    stdout=out) == 1
        assert "REJECT" in out.getvalue()

    def test_certify_subcommand_rejects_bool_literal(self, tmp_path):
        # JSON true/false equal 1/0 in Python, so the rebuilt function
        # would not change; the literal itself must be rejected.
        pla, blif, cert = self._emit(tmp_path)
        doc = load_cert(cert)
        step = next(step for step in doc["steps"]
                    if step["f"] and step["f"][0])
        name = sorted(step["f"][0])[0]
        step["f"][0][name] = bool(step["f"][0][name])
        save_cert(cert, doc)
        out = io.StringIO()
        assert main(["certify", str(pla), str(blif), cert],
                    stdout=out) == 1
        assert "bad cube literal" in out.getvalue()

    def test_certify_subcommand_unusable_file(self, tmp_path):
        pla, blif, _cert = self._emit(tmp_path, "xor5")
        bad = tmp_path / "bad.cert.json"
        bad.write_text("{}")
        assert main(["certify", str(pla), str(blif), str(bad)],
                    stdout=io.StringIO()) == 1

    def test_certify_blif_input_unknown_to_the_spec(self, tmp_path, capsys):
        pla, blif, cert = self._emit(tmp_path, "xor5")
        text = blif.read_text()
        inputs = next(line for line in text.splitlines()
                      if line.startswith(".inputs"))
        blif.write_text(text.replace(inputs, inputs + " ghost"))
        capsys.readouterr()
        assert main(["certify", str(pla), str(blif), cert],
                    stdout=io.StringIO()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unusable BLIF "), err
        assert "'ghost'" in err

    def test_decompose_certify_round_trip(self, tmp_path):
        pla = _write_bench_pla(tmp_path, "rd53")
        blif = tmp_path / "rd53.blif"
        stats = tmp_path / "stats.json"
        rc = main(["decompose", str(pla), "-o", str(blif), "--certify",
                   "--stats-json", str(stats)], stdout=io.StringIO())
        assert rc == 0
        doc = json.loads(stats.read_text())
        assert doc["certify"] == {"emitted": 1, "checked": 1,
                                  "accepted": 1, "rejected": 0}
        assert doc["certificate"] == cert_path_for(str(blif))
        assert doc["config"]["emit_certificates"] is True

    def test_decompose_certify_needs_file_output(self, tmp_path):
        pla = _write_bench_pla(tmp_path, "xor5")
        assert main(["decompose", str(pla), "--certify"],
                    stdout=io.StringIO()) == 2
        assert main(["decompose", str(pla), str(pla), "--certify"],
                    stdout=io.StringIO()) == 2

    def test_batch_certify_counts_and_exit(self, tmp_path):
        plas = [str(_write_bench_pla(tmp_path, name))
                for name in ("rd53", "xor5")]
        out_dir = tmp_path / "out"
        stats = tmp_path / "batch.json"
        rc = main(["decompose"] + plas + ["--output-dir", str(out_dir),
                   "--certify", "--jobs", "2",
                   "--stats-json", str(stats)], stdout=io.StringIO())
        assert rc == 0
        doc = json.loads(stats.read_text())
        assert doc["certify"] == {"emitted": 2, "checked": 2,
                                  "accepted": 2, "rejected": 0}

    def test_certified_event_published(self, tmp_path):
        pla, blif, run, _ = _decompose_with_cert(tmp_path, "xor5")
        # The CLI path publishes certified/certify_failed; exercise the
        # helper directly with a recording session bus.
        from repro.cli import _certify_one
        from repro.pipeline import EventBus
        bus = EventBus()
        assert _certify_one(str(pla), str(blif), run.certificate_path,
                            events=bus)
        assert bus.named("certified")
        doc = load_cert(run.certificate_path)
        doc["steps"][0]["gate"] = "XOR"
        save_cert(run.certificate_path, doc)
        assert not _certify_one(str(pla), str(blif),
                                run.certificate_path, events=bus)
        assert bus.named("certify_failed")
