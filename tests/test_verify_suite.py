"""The verify checks of the trace operations fail on planted defects.

`frontforge verify`'s constraint-projection check, the corpus case
`projection-residual` and the scaling and rearrangement suites (criterion 12)
certify what the solver's trace trial runs: the translation onto Gamma = 1,
the weighted rearrangement and the trace energy.  Each check passes on the
solver's operation and fails when that operation is replaced by a defective
one.
"""

import numpy as np
import pytest

from frontforge import corpus, grid, solver, verify_suite

PROJECTION = "projection_residual 0.25 0.125 8 40 -120 30 32 256"


def _fast_check(name):
    return dict(verify_suite.fast_checks(1234))[name]()


def _projection_case():
    (case,) = [c for c in corpus.load_cases() if c.identifier == "projection-residual"]
    return case


def test_the_trial_lands_on_the_constraint():
    assert corpus.run_command(PROJECTION) <= 1e-15
    assert _fast_check("constraint-projection")[0]


def test_a_trial_that_skips_the_shift_fails(monkeypatch):
    monkeypatch.setattr(grid, "translate_onto_unit", lambda spec, values, gamma, cell: (values, gamma))
    assert not _fast_check("constraint-projection")[0]
    assert not corpus.check(_projection_case()).passed


def _unweighted_sort(vals, meas, *, out):
    out[:] = -np.sort(-vals, axis=1)
    return out


def _identity(vals, meas, *, out):
    return out


@pytest.mark.parametrize("defect", [_unweighted_sort, _identity], ids=["unweighted-sort", "identity"])
def test_a_wrong_rearrangement_fails_the_suite(monkeypatch, defect):
    assert verify_suite.rearrangement_suite(1234)[0]
    monkeypatch.setattr(grid, "rearrange_columns", defect)
    assert not verify_suite.rearrangement_suite(1234)[0]


def test_an_unweighted_potential_fails_the_scaling_suite(monkeypatch):
    assert verify_suite.scaling_suite(1234)[0]

    def unweighted(self, u, gamma, nl):
        return 0.5 * gamma + float(np.sum(self.spec.tau * self.spec.hy * np.asarray(nl.G(u))))

    monkeypatch.setattr(solver._Trace, "energy", unweighted)
    assert not verify_suite.scaling_suite(1234)[0]
