"""Bad input fails fast and typed: a parse error (exit 1) or a computation
error (exit 2), never a traceback and never an unbounded run."""

import copy
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tateform.cli import parse_scenario, run_scenario
from tateform.errors import CapExceeded, ParseError
from tateform.gcomplexes import TENSOR_POWER_CAP, tensor_power_shifted
from tateform.gmodules import finite_field_units, zmodule
from tateform.groups import abelianization, make_cyclic
from tateform.resolutions import WINDOW_CAP, resolution_for
from tateform.scenarios import bundled_document, bundled_names

from test_cli import invoke, minimal_doc
from test_differential import table_group

# two copies of Z joined by multiplication by 2, over Z/2
COMPLEX_DOC = {
    "name": "two-term",
    "group": {"kind": "cyclic", "n": 2},
    "coefficients": {
        "kind": "complex",
        "lo": 0,
        "terms": [
            {"gens": 1, "action": [[[1]], [[1]]], "relators": []},
            {"gens": 1, "action": [[[1]], [[1]]]},
        ],
        "diffs": [[[2]]],
    },
    "analyses": [{"kind": "tate", "range": [-2, 2]}],
}

FUZZ_DOCS = [bundled_document(n) for n in bundled_names()] + [COMPLEX_DOC]
COMPLEX = len(FUZZ_DOCS) - 1
RELATORS = ["coefficients", "terms", 0, "relators"]


def mutate(index, path, value):
    """A copy of FUZZ_DOCS[index] with the value at path replaced."""
    doc = copy.deepcopy(FUZZ_DOCS[index])
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def with_relators(value):
    return mutate(COMPLEX, RELATORS, value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


@st.composite
def mutations(draw):
    """A bundled or complex document, a path into it, and a new value."""
    index = draw(st.integers(0, len(FUZZ_DOCS) - 1))
    node, path = FUZZ_DOCS[index], []
    while isinstance(node, (dict, list)) and node \
            and draw(st.integers(0, 3)) > 0:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        path.append(key)
        node = node[key]
    return index, path, draw(json_values)


class TestRelatorsAreValidated:
    @pytest.mark.parametrize("value", [None, 0, False, ""])
    def test_falsy_relators_are_a_parse_error(self, value):
        with pytest.raises(ParseError, match=r"terms\[0\]\.relators"):
            parse_scenario(with_relators(value))

    def test_empty_relators_are_still_accepted(self):
        report = run_scenario(parse_scenario(with_relators([])))
        rows = report["results"][0]["rows"]
        assert all(row["invariants"] == [2] for row in rows)

    def test_cli_reports_no_traceback(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(with_relators(None)))
        code, out, err = invoke(["run", str(p)])
        assert code == 1
        assert err.startswith("parse error: coefficients.terms[0].relators")


class TestHugeConeMultiplier:
    @pytest.mark.parametrize("m", [2 ** 63, 10 ** 30])
    def test_matches_the_multiplier_with_the_same_gcds(self, m):
        # every Tate group of Z over Z/4 is 0 or Z/4, and 4 divides m,
        # so the cone of m has the orders of the cone of 4
        def result(mult):
            doc = minimal_doc(analyses=[{"kind": "cone-les", "m": mult}])
            return run_scenario(parse_scenario(doc))["results"][0]
        big, small = result(m), result(4)
        assert big["verdict"] == "ok"
        assert big["m"] == m
        assert big["rows"] == small["rows"]
        assert big["maps"] == small["maps"]


def test_table_order_is_capped_before_the_group_law_check():
    table = [[0] * 25 for _ in range(25)]
    with pytest.raises(ParseError, match="exceeds the configured cap 24"):
        parse_scenario(minimal_doc(group={"kind": "table", "table": table}))


class TestCapEdges:
    def test_field_at_the_cap_is_built(self):
        # 2^12 = 4096 = FIELD_SIZE_CAP, the largest f n the early bound allows
        M = finite_field_units(2, 1, 12)
        assert M.relators[0, 0] == 4095

    @pytest.mark.parametrize("p, f, n", [(2, 13, 1), (2, 1, 13), (4099, 1, 1)])
    def test_field_past_the_cap_is_refused(self, p, f, n):
        with pytest.raises(CapExceeded, match="exceeds cap 4096"):
            finite_field_units(p, f, n)

    def test_window_cap(self):
        G = make_cyclic(2)
        assert resolution_for(G, WINDOW_CAP).length == WINDOW_CAP
        with pytest.raises(CapExceeded, match="length 17 exceeds cap 16"):
            resolution_for(G, WINDOW_CAP + 1)

    def test_tensor_power_cap(self):
        M = zmodule(make_cyclic(2))
        with pytest.raises(CapExceeded, match="1\\^513 exceeds cap 512"):
            tensor_power_shifted(M, TENSOR_POWER_CAP + 1)


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_limited(path, *args):
    """``tateform run path`` in a child process, under a 60 s timeout and a
    1 GiB address-space limit."""
    return subprocess.run(
        [sys.executable, "-m", "tateform", "run", str(path), *args],
        capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space)


# Inputs whose work has no practical bound unless a cap refuses it first:
# trial division up to 2^30.5, a 2^40-step loop, a window of 2^61 degrees,
# or an integer of about 2^40 or 10^18 bits.  Each runs in a child process
# under a timeout and a 1 GiB address-space limit, so a missing cap fails
# the test instead of stalling or exhausting the host.
UNBOUNDED = {
    "field-prime-2^61-1": minimal_doc(
        group={"kind": "cyclic", "n": 2},
        coefficients={"kind": "finite-field-units",
                      "p": 2 ** 61 - 1, "f": 1, "n": 2}),
    "field-degree-10^18": minimal_doc(
        group={"kind": "cyclic", "n": 2},
        coefficients={"kind": "finite-field-units",
                      "p": 2, "f": 10 ** 18, "n": 2}),
    "tensor-power-2^40-of-one-generator": minimal_doc(
        coefficients={"kind": "tensor-power-shift",
                      "base": {"kind": "trivial"}, "power": 2 ** 40}),
    "tensor-power-2^40-of-four-generators": minimal_doc(
        coefficients={"kind": "tensor-power-shift",
                      "base": {"kind": "regular"}, "power": 2 ** 40}),
    "window-2^61-1": minimal_doc(options={"window": 2 ** 61 - 1}),
}


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource limits")
@pytest.mark.parametrize("name", sorted(UNBOUNDED))
def test_oversized_work_is_refused_up_front(tmp_path, name):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(UNBOUNDED[name]))
    proc = run_limited(p)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("computation error: ")
    assert "exceeds cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def _mat_mul_f3(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % 3, (a * f + b * h) % 3,
            (c * e + d * g) % 3, (c * f + d * h) % 3)


def _a4_times_c2(x, y):
    return tuple(x[0][i] for i in y[0]), (x[1] + y[1]) % 2


# SL(2,3) as the 2x2 matrices over F_3 of determinant 1, and A4 x C2 on
# A4's even permutations of 0..3, both listed in lexicographic order
SL2F3 = table_group([m for m in itertools.product(range(3), repeat=4)
                     if (m[0] * m[3] - m[1] * m[2]) % 3 == 1],
                    _mat_mul_f3, "SL(2,3)")
A4 = [p for p in itertools.permutations(range(4))
      if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
A4XC2 = table_group([(p, c) for p in A4 for c in range(2)], _a4_times_c2,
                    "A4xC2")
SL2F3_DOC = Path(__file__).resolve().parent / "data" / "sl2f3-tate.json"


def test_the_committed_sl2f3_document_is_sl2f3():
    doc = json.loads(SL2F3_DOC.read_text())
    assert doc["group"] == {"kind": "table",
                            "table": [list(row) for row in SL2F3.table]}
    assert doc["analyses"] == [{"kind": "tate", "range": [-2, 2]}]
    assert "options" not in doc  # the default window, 6


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource limits")
@pytest.mark.parametrize("G", [SL2F3, A4XC2], ids=["SL(2,3)", "A4xC2"])
def test_order_24_tables_read_only_the_degrees_they_need(tmp_path, G):
    # Tate groups of Z over [-2, 2] read resolution degrees up to 3 of the
    # default window 6; peeling these tables to degree 5 has no practical
    # bound.  H^-2 is G^ab and H^0 is Z/|G|
    doc = json.loads(SL2F3_DOC.read_text())
    doc["group"]["table"] = [list(row) for row in G.table]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    proc = run_limited(p, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    rows = {row["q"]: row["invariants"]
            for row in json.loads(proc.stdout)["results"][0]["rows"]}
    assert rows[-2] == list(abelianization(G)[0].invariants())
    assert rows[0] == [24]


@pytest.mark.parametrize("lo, hi", [(-3, 3), (-4, 4)])
def test_c2_4_answers_the_ranges_below_its_over_cap_degree(tmp_path, lo, hi):
    # degree 5 of C2^4's peel has rank 66, over PEEL_RANK_CAP: [-3, 3]
    # reads resolution degrees up to 4 of window 5, and [-4, 4] reads 5
    doc = minimal_doc(group={"kind": "product", "factors": [2, 2, 2, 2]},
                      options={"window": 5},
                      analyses=[{"kind": "tate", "range": [lo, hi]}])
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = invoke(["run", str(p), "--format", "json"])
    if hi == 4:
        assert (code, out) == (2, "")
        assert err == "computation error: peeled rank 66 exceeds cap 64\n"
        return
    assert code == 0, err
    rows = {row["q"]: row["invariants"]
            for row in json.loads(out)["results"][0]["rows"]}
    assert rows[-3] == [2] * 6
    assert rows[-2] == [2] * 4


# Files the JSON reader itself cannot take: not UTF-8 (JSON text is UTF-8
# by RFC 8259, whatever the locale), or nested past the decoder's
# recursion limit.  Both are document problems, so exit 1.
UNREADABLE = {
    "leading-0xff": b"\xff{}",
    "200000-nested-arrays": b"[" * 200_000,
}


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_document_is_a_parse_error(tmp_path, name, verb):
    p = tmp_path / "doc.json"
    p.write_bytes(UNREADABLE[name])
    proc = subprocess.run(
        [sys.executable, "-m", "tateform", verb, str(p)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("parse error: %s: " % p)
    assert "Traceback" not in proc.stderr


@settings(max_examples=300, deadline=None)
@given(mutations())
@example((COMPLEX, RELATORS, None))
@example((COMPLEX, RELATORS, 0))
@example((COMPLEX, RELATORS, False))
@example((COMPLEX, RELATORS, ""))
@example((0, ["analyses", 0], {"kind": "cone-les", "m": 2 ** 63}))
@example((COMPLEX, ["options"], {"window": 2 ** 61 - 1}))
@example((COMPLEX, ["coefficients"],
          {"kind": "finite-field-units", "p": 2 ** 61 - 1, "f": 1, "n": 2}))
@example((COMPLEX, ["coefficients"],
          {"kind": "tensor-power-shift", "base": {"kind": "trivial"},
           "power": 2 ** 40}))
def test_parse_raises_nothing_but_parse_error(mutation):
    try:
        parse_scenario(mutate(*mutation))
    except ParseError:
        pass
