"""Scenario parsing, the bundled catalog, report determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import pytest

from tateform.cli import main, parse_scenario, run_scenario, serialize_scenario
from tateform import scenarios
from tateform.errors import ParseError
from tateform.groups import make_cyclic, symmetric_group
from tateform.scenarios import bundled_document, bundled_names
from tateform.tate import TOTAL_DIM_CAP

from test_differential import relabel

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def invoke(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def minimal_doc(**overrides):
    doc = {
        "name": "minimal",
        "group": {"kind": "cyclic", "n": 4},
        "coefficients": {"kind": "trivial"},
        "analyses": [{"kind": "formation"}],
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_minimal_document_is_valid(self):
        spec = parse_scenario(minimal_doc())
        assert spec.name == "minimal"
        assert spec.coefficients == {"kind": "trivial", "shift": 0}
        assert spec.options == {"engine": "auto", "window": 6,
                                "max_order": 24}
        assert spec.analyses == [{"kind": "formation"}]

    def test_unknown_analysis_names_the_field(self):
        with pytest.raises(ParseError, match=r"analyses\[0\].kind"):
            parse_scenario(minimal_doc(analyses=[{"kind": "eigenvalues"}]))

    def test_oversized_group_states_the_cap(self):
        with pytest.raises(ParseError, match="exceeds the configured cap 24"):
            parse_scenario(minimal_doc(group={"kind": "cyclic", "n": 48}))

    def test_cap_is_configurable(self):
        doc = minimal_doc(group={"kind": "cyclic", "n": 48},
                          options={"max_order": 50})
        assert parse_scenario(doc).group == {"kind": "cyclic", "n": 48}

    def test_unknown_top_level_key(self):
        with pytest.raises(ParseError, match="scenario.extra"):
            parse_scenario(minimal_doc(extra=1))

    def test_bad_table_is_a_parse_error(self):
        doc = minimal_doc(group={"kind": "table",
                                 "table": [[0, 1], [1, 1]]})
        with pytest.raises(ParseError, match="group.table"):
            parse_scenario(doc)

    def test_ffu_group_mismatch(self):
        doc = minimal_doc(
            coefficients={"kind": "finite-field-units",
                          "p": 2, "f": 1, "n": 3})
        with pytest.raises(ParseError, match="cyclic of order 3"):
            parse_scenario(doc)

    def test_inverted_range(self):
        doc = minimal_doc(analyses=[{"kind": "tate", "range": [3, -2]}])
        with pytest.raises(ParseError, match=r"analyses\[0\].range"):
            parse_scenario(doc)

    @pytest.mark.parametrize("name", bundled_names())
    def test_round_trip_identity(self, name):
        spec = parse_scenario(bundled_document(name))
        assert parse_scenario(serialize_scenario(spec)) == spec


class TestCatalog:
    def test_at_least_eight_bundled(self):
        assert len(bundled_names()) >= 8

    def test_listing_is_stable(self):
        first = invoke(["list"])
        second = invoke(["list"])
        assert first == second
        assert first[0] == 0

    def test_entries_name_their_verdict(self):
        code, out, _ = invoke(["list"])
        for name in bundled_names():
            assert name in out
        # every catalog line states what result to expect
        for line in out.splitlines()[1:]:
            assert any(token in line for token in
                       ("PASS", "FAIL", "= 0", "holds", "rejected"))

    def test_json_listing(self):
        code, out, _ = invoke(["list", "--format", "json"])
        assert code == 0
        catalog = json.loads(out)["scenarios"]
        assert [c["name"] for c in catalog] == bundled_names()


class TestGolden:
    @pytest.mark.parametrize(
        "name", ["hilbert90-f4", "unramified-cyclic-2", "cone-les-z2"])
    def test_demo_matches_golden_file(self, name):
        code, out, _ = invoke(["demo", name, "--format", "json"])
        assert code == 0
        with open(os.path.join(GOLDEN_DIR, "%s.json" % name)) as fh:
            assert out == fh.read()

    @pytest.mark.parametrize(
        "name", ["hilbert90-f4", "unramified-cyclic-4-norm-table",
                 "klein-four-z", "tn-cyclic-4", "tn-klein-reject",
                 "cone-les-z2"])
    def test_demo_text_matches_golden_file(self, name):
        # between them these cover every analysis kind and both verdicts
        code, out, _ = invoke(["demo", name])
        assert code == 0
        with open(os.path.join(GOLDEN_DIR, "%s.txt" % name)) as fh:
            assert out == fh.read()

    @pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
    def test_every_analysis_on_one_group_matches_golden_file(self, tmp_path,
                                                             fmt, ext):
        # the five analyses read one set of Tate groups kept on the
        # resolution; the goldens pin every coordinate read through it
        doc = {"name": "z6-every-analysis",
               "group": {"kind": "cyclic", "n": 6},
               "coefficients": {"kind": "trivial", "shift": 0},
               "analyses": [{"kind": "formation"}, {"kind": "norm-table"},
                            {"kind": "tate-nakayama"},
                            {"kind": "cone-les", "m": 2},
                            {"kind": "tate", "range": [-2, 3]}]}
        p = tmp_path / "z6-every-analysis.json"
        p.write_text(json.dumps(doc))
        code, out, err = invoke(["run", str(p), "--format", fmt])
        assert (code, err) == (0, "")
        with open(os.path.join(GOLDEN_DIR, "z6-every-analysis.%s" % ext)) as fh:
            assert out == fh.read()

    @pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
    def test_every_analysis_on_s3_matches_golden_file(self, tmp_path, fmt,
                                                      ext):
        # a nonabelian group whose formation passes with (C3) rows between
        # proper subgroups, so restriction inside S3 is pinned too
        doc = {"name": "s3-every-analysis",
               "group": {"kind": "table", "table": scenarios._S3_TABLE},
               "coefficients": {"kind": "trivial", "shift": 2},
               "analyses": [{"kind": "formation"}, {"kind": "norm-table"},
                            {"kind": "tate-nakayama", "range": [-1, 2]},
                            {"kind": "cone-les", "m": 2, "range": [-1, 1]},
                            {"kind": "tate", "range": [-1, 2]}],
               "options": {"window": 4}}
        p = tmp_path / "s3-every-analysis.json"
        p.write_text(json.dumps(doc))
        code, out, err = invoke(["run", str(p), "--format", fmt])
        assert (code, err) == (0, "")
        with open(os.path.join(GOLDEN_DIR, "s3-every-analysis.%s" % ext)) as fh:
            assert out == fh.read()

    def test_three_runs_byte_identical(self):
        outs = {invoke(["demo", "s3-z", "--format", "json"])[1]
                for _ in range(3)}
        assert len(outs) == 1


class TestExitCodes:
    def test_fail_verdict_is_still_success(self):
        code, out, _ = invoke(["demo", "klein-four-z"])
        assert code == 0
        assert "FAIL (C2)" in out

    def test_missing_verb(self):
        assert invoke([])[0] == 1

    def test_unknown_demo_lists_names(self):
        code, _, err = invoke(["demo", "nope"])
        assert code == 1
        assert "unramified-cyclic-2" in err

    def test_parse_error_from_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(minimal_doc(
            analyses=[{"kind": "eigenvalues"}])))
        code, _, err = invoke(["run", str(p)])
        assert code == 1
        assert "analyses[0].kind" in err

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_zero_generator_term_needs_empty_actions(self, tmp_path, verb):
        doc = minimal_doc(
            group={"kind": "cyclic", "n": 2},
            coefficients={"kind": "complex", "lo": 0, "terms": [
                {"gens": 0, "action": [["x"], ["y"]]}]},
            analyses=[{"kind": "tate", "range": [0, 0]}])
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(doc))
        code, _, err = invoke([verb, str(p)])
        assert code == 1
        assert "parse error" in err
        assert "coefficients.terms[0].action[0]" in err
        assert "Traceback" not in err

    ONE = {"gens": 1, "action": [[[1]], [[1]]]}

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("terms, diffs, field", [
        ([{"gens": 1, "action": [[[1, 0]], [[1, 0]]]}], [],
         "coefficients.terms[0].action[0]"),
        ([{"gens": 1, "action": [[[1]]]}], [],
         "coefficients.terms[0].action"),
        ([ONE, ONE], [[[1, 2]]], "coefficients.diffs[0]"),
    ], ids=["wide-action", "one-action-for-z2", "wide-diff"])
    def test_matrix_shapes_are_checked(self, tmp_path, verb, terms, diffs,
                                       field):
        doc = minimal_doc(
            group={"kind": "cyclic", "n": 2},
            coefficients={"kind": "complex", "lo": 0, "terms": terms,
                          "diffs": diffs},
            analyses=[{"kind": "tate", "range": [0, 0]}])
        p = tmp_path / "shape.json"
        p.write_text(json.dumps(doc))
        code, _, err = invoke([verb, str(p)])
        assert code == 1
        assert "parse error: %s:" % field in err
        assert "Traceback" not in err

    def test_differential_into_a_zero_term(self):
        zero = {"gens": 0, "action": [[], []]}
        doc = minimal_doc(
            group={"kind": "cyclic", "n": 2},
            coefficients={"kind": "complex", "lo": 0,
                          "terms": [self.ONE, zero], "diffs": [[]]},
            analyses=[{"kind": "tate", "range": [0, 0]}])
        report = run_scenario(parse_scenario(doc))
        assert report["results"][0]["rows"][0]["invariants"] == [2]

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert invoke(["run", str(p)])[0] == 1

    def test_missing_file(self):
        assert invoke(["run", "/does/not/exist.json"])[0] == 1

    @pytest.mark.parametrize("group, exit_code", [
        ({"kind": "product", "factors": [2, 2]}, 0),
        ({"kind": "cyclic", "n": 4}, 2)], ids=["c2xc2", "z4"])
    def test_tate_nakayama_builds_only_the_ranges_it_reads(
            self, tmp_path, group, exit_code):
        # window 3 holds the hypotheses' degrees [1, 2] but not the
        # conclusion's [-2, 3].  C2 x C2 fails (ii), so its conclusion is
        # never built and it exits 0; Z/4 passes the hypotheses and its
        # conclusion build exits 2.  One build over both ranges would make
        # C2 x C2 exit 2 as well
        doc = minimal_doc(group=group, analyses=[
            {"kind": "tate-nakayama", "range": [-2, 3]}],
            options={"window": 3})
        p = tmp_path / "tn.json"
        p.write_text(json.dumps(doc))
        code, out, err = invoke(["run", str(p)])
        assert code == exit_code
        if exit_code == 0:
            assert err == ""
            assert "[tate-nakayama] FAIL (ii)" in out
            assert "cup at" not in out
        else:
            assert out == ""
            assert err == (
                "computation error: degrees [-2, 3] with coefficient support "
                "[0, 0] need resolution degrees [-4, 3]; window is [-3, 3]\n")

    def test_tate_nakayama_candidate_window_error_names_its_range(self):
        # the candidate is read from the hypotheses' groups over [1, 2], so
        # a window that cannot hold them names that range
        code, out, err = invoke(["demo", "tn-cyclic-4", "--window", "1"])
        assert (code, out) == (2, "")
        assert err == (
            "computation error: degrees [1, 2] with coefficient support "
            "[0, 0] need resolution degrees [-3, 0]; window is [-1, 1]\n")

    def test_oversized_total_complex_is_refused_up_front(self, tmp_path):
        # S4 with the regular module: coinduced from the trivial subgroup
        # the coefficients have 576 generators, so degree 1 of its total
        # complex is 3 x 576 wide, and it is refused before it is built
        doc = minimal_doc(
            group={"kind": "table",
                   "table": [list(r) for r in symmetric_group(4).table]},
            coefficients={"kind": "regular"}, options={"window": 3})
        p = tmp_path / "s4-regular.json"
        p.write_text(json.dumps(doc))
        start = perf_counter()
        code, out, err = invoke(["run", str(p)])
        assert perf_counter() - start < 10
        assert (code, out) == (2, "")
        assert err == ("computation error: total complex degree 1 has "
                       "dimension 1728, cap is %d\n" % TOTAL_DIM_CAP)

    def test_window_too_small_is_computation_error(self):
        code, _, err = invoke(
            ["demo", "hilbert90-f4", "--window", "2", "--range=-4..4"])
        assert code == 2
        assert "window" in err

    def test_periodic_engine_on_noncyclic(self):
        code, _, err = invoke(["demo", "klein-four-z",
                               "--engine", "periodic"])
        assert code == 2
        assert "cyclic" in err


class TestRunVerb:
    def test_run_equals_demo(self, tmp_path):
        p = tmp_path / "scen.json"
        p.write_text(json.dumps(bundled_document("hilbert90-f9")))
        via_file = invoke(["run", str(p), "--format", "json"])
        via_demo = invoke(["demo", "hilbert90-f9", "--format", "json"])
        assert via_file == via_demo

    def test_validate_accepts_and_echoes(self, tmp_path):
        p = tmp_path / "scen.json"
        p.write_text(json.dumps(bundled_document("s3-z")))
        code, out, _ = invoke(["validate", str(p), "--format", "json"])
        assert code == 0
        spec = parse_scenario(json.loads(out))
        assert spec.name == "s3-z"

    def test_explicit_complex_document(self):
        # two copies of Z joined by multiplication by 2, placed at [0, 1];
        # every Tate group of the cone-like complex is Z/2
        doc = {
            "name": "two-term",
            "group": {"kind": "cyclic", "n": 2},
            "coefficients": {
                "kind": "complex",
                "lo": 0,
                "terms": [
                    {"gens": 1, "action": [[[1]], [[1]]]},
                    {"gens": 1, "action": [[[1]], [[1]]]},
                ],
                "diffs": [[[2]]],
            },
            "analyses": [{"kind": "tate", "range": [-2, 2]}],
        }
        spec = parse_scenario(doc)
        report = run_scenario(spec)
        rows = report["results"][0]["rows"]
        assert all(row["invariants"] == [2] for row in rows)

    def test_flag_overrides_reach_the_report(self):
        code, out, _ = invoke(
            ["demo", "hilbert90-f4", "--format", "json", "--range", "1..1"])
        report = json.loads(out)
        assert report["results"][0]["range"] == [1, 1]
        assert report["scenario"]["analyses"][0]["range"] == [1, 1]

    def test_tensor_power_zero_is_trivial_z(self):
        doc = minimal_doc(
            coefficients={"kind": "tensor-power-shift",
                          "base": {"kind": "trivial"}, "power": 0},
            analyses=[{"kind": "tate", "range": [0, 0]}])
        report = run_scenario(parse_scenario(doc))
        assert report["results"][0]["rows"][0]["invariants"] == [4]


def test_reciprocity_matrix_of_a_retyped_table(tmp_path):
    # Z/24 typed in with its identity at id 15: the reciprocity matrix is
    # printed in the canonical basis of the coset presentation of G^ab
    G = relabel(make_cyclic(24), 2)
    assert G.identity != 0
    path = tmp_path / "z24.json"
    path.write_text(json.dumps(minimal_doc(
        group={"kind": "table", "table": [list(r) for r in G.table]},
        options={"window": 4})))
    code, out, _ = invoke(["run", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["results"][0]["reciprocity"] == {
        "isomorphism": True, "matrix": [[253]], "source": [24],
        "target": [24]}
    code, out, _ = invoke(["run", str(path)])
    assert code == 0
    assert "  reciprocity Z/24 -> Z/24: isomorphism, matrix [[253]]\n" in out


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "tateform", "list"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "bundled scenarios" in proc.stdout


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away; fileno names a scratch file."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def test_closed_pipe_exits_1_without_traceback(tmp_path):
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    err = io.StringIO()
    try:
        with redirect_stdout(_ClosedPipe(fd)), redirect_stderr(err):
            code = main(["demo", "cone-les-z2", "--format", "json"])
        # the descriptor now points at devnull
        os.write(fd, b"flushed at exit")
    finally:
        os.close(fd)
    assert code == 1
    assert err.getvalue() == ""
    assert path.read_bytes() == b""


def test_exactness_error_is_a_computation_error(monkeypatch):
    from tateform import cli
    from tateform.intlinalg import ExactnessError

    def broken(spec):
        raise ExactnessError("d_out @ d_in != 0")

    monkeypatch.setattr(cli, "run_scenario", broken)
    code, out, err = invoke(["demo", "cone-les-z2"])
    assert code == 2
    assert out == ""
    assert err == "computation error: d_out @ d_in != 0\n"
    assert "Traceback" not in err


def test_value_error_is_a_computation_error(monkeypatch):
    from tateform import cli

    def broken(spec):
        raise ValueError("vector is not in the numerator lattice")

    monkeypatch.setattr(cli, "run_scenario", broken)
    code, out, err = invoke(["demo", "cone-les-z2"])
    assert code == 2
    assert out == ""
    assert err == "computation error: vector is not in the numerator lattice\n"
    assert "Traceback" not in err
