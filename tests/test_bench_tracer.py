"""The benchmark tracer's name contract with csplab.

perfbench/tracer.py wraps csplab's functions by the names its modules look
up at call time (vars(owner)[attr]), so a module that drops such an import
or stops calling it breaks every benchmark run.  This installs the tracer
against csplab, checks that a few of those names were wrapped, and checks
that remove() puts every original back.  The tracer is imported from its
file and not edited.
"""

import importlib.util
from pathlib import Path

from csplab import codecs, harness, measurement, piecewise, rng, svgplot

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_names_and_restores_them():
    tracer_module = load_tracer()
    owners = (harness, measurement, rng, codecs, svgplot, piecewise,
              codecs.SparseCodec, codecs.GridCodec, codecs.ExplicitCodec,
              codecs.PiecewisePolyCodec, piecewise.PiecewisePolynomial)
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        for owner, name in ((harness, "csp_recover"), (harness, "measure"),
                            (harness, "run_trial"), (measurement, "gaussian_vector"),
                            (codecs, "derive_stream"), (codecs.SparseCodec, "decode"),
                            (codecs.PiecewisePolyCodec, "coef_block")):
            wrapped = vars(owner)[name]
            assert wrapped is not before[owner][name], name
            assert wrapped.__wrapped__ is before[owner][name], name
    finally:
        tracer.remove()
    for owner, names in before.items():
        assert vars(owner).keys() == names.keys(), owner
        for name, original in names.items():
            assert vars(owner)[name] is original, (owner, name)
