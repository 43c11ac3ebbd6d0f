"""The benchmark's outside tracer wraps package names by string; a rename
or a dropped SnfResult field must fail here, not only in the benchmark."""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from tateform import cli, intlinalg, tate

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls():
    snf = intlinalg.smith_normal_form
    init = tate.TotalComplex.__dict__["__init__"]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert intlinalg.smith_normal_form is not snf
        with redirect_stdout(io.StringIO()):
            assert cli.main(["demo", "cone-les-z2", "--format", "json"]) == 0
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert intlinalg.smith_normal_form is snf
    assert tate.TotalComplex.__dict__["__init__"] is init
    assert metrics["intlinalg.snf.calls"] > 0
    assert metrics["intlinalg.snf.transform_cells"] > 0
    # every integer solve goes through the traced LatticeSolver.solve
    assert metrics["intlinalg.solver.solve_calls"] > 0
    assert metrics["tate.cone.calls"] > 0
    assert metrics["cli.render.s"] > 0
