"""The verify checks of the trace operations fail on planted defects.

The corpus case `projection-residual`, which `frontforge verify` runs among
its fast checks, and the scaling and rearrangement suites (criterion 12)
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
    assert _projection_case().command == PROJECTION
    assert corpus.check(_projection_case()).passed
    assert _fast_check("corpus:projection-residual")[0]


def test_a_trial_that_skips_the_shift_fails(monkeypatch):
    monkeypatch.setattr(solver._Trace, "walk", lambda self, u, forms: (u, forms[2]))
    assert not corpus.check(_projection_case()).passed
    assert not _fast_check("corpus:projection-residual")[0]


def _unweighted_sort(u, meas):
    u[:] = -np.sort(-u)
    return u


def _identity(u, meas):
    return u


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
