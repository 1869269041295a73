"""Every check can fail: one mutation of the program per check flips its row to FAIL.

Each entry of MUTATIONS names a check, a golden config that runs it (and PASSes it,
`test_golden.py`), and one monkeypatch that breaks what the check verifies. The
relation mutations act on the stacks that `scenarios._by_shape` runs, so they record
the batch shape of every call and the test asserts that a stack of more than one
member was mutated.
"""

import dataclasses
import pathlib

import numpy as np
import pytest

from ldlab import extensions, hscale, leftdef
from ldlab.config import parse_config
from ldlab.scenarios import run_scenario
from ldlab.spectral import LinearRelation, SpectralDecomposition

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _offdiag_gram(monkeypatch, batches):
    """1e-6 max|G| added to one off-diagonal pair of the eigen-Gram `compress` returns."""
    real = SpectralDecomposition.compress

    def compress(self, m):
        gram = real(self, m)
        bump = 1e-6 * np.max(np.abs(gram))
        gram[0, 1] += bump
        gram[1, 0] += bump
        return gram

    monkeypatch.setattr(SpectralDecomposition, "compress", compress)


def _moved_spectrum(monkeypatch, batches):
    """The largest eigenvalue of A_r's spectrum moved up by 2 ulps."""
    real = leftdef.LeftDefiniteOperator.spectrum.fget

    def spectrum(self):
        lam = real(self).copy()
        lam[-1] = np.nextafter(np.nextafter(lam[-1], np.inf), np.inf)
        return lam

    monkeypatch.setattr(leftdef.LeftDefiniteOperator, "spectrum", property(spectrum))


def _wrong_m_plus(monkeypatch, batches):
    """deficiency_indices reports m+ one too large."""
    real = extensions.deficiency_indices

    def deficiency_indices(s):
        batches.append(s.graph.basis.shape[:-2])
        rep = real(s)
        return dataclasses.replace(rep, m_plus=rep.m_plus + 1)

    monkeypatch.setattr(extensions, "deficiency_indices", deficiency_indices)


def _swapped_defect_kernels(monkeypatch, batches):
    """ker(t - i) and ker(t + i) trade places."""
    real = LinearRelation.defect_kernels

    def defect_kernels(self):
        batches.append(self.graph.basis.shape[:-2])
        return real.__get__(self, LinearRelation)[::-1]

    monkeypatch.setattr(LinearRelation, "defect_kernels", property(defect_kernels))


def _inverted_oracle(monkeypatch, batches):
    """The oracle's rank-based domain equality answers the opposite, member by member."""
    real = extensions._domains_equal_by_rank

    def domains_equal_by_rank(a, b):
        batches.append(a.basis.shape[:-2])
        return ~np.asarray(real(a, b))

    monkeypatch.setattr(extensions, "_domains_equal_by_rank", domains_equal_by_rank)


def _inverted_classifier(monkeypatch, batches):
    """The partial-sum classifier calls every grid point the opposite way."""
    real = hscale._divergent
    monkeypatch.setattr(hscale, "_divergent", lambda *args: [not v for v in real(*args)])


# check name -> (golden config, mutation, whether the check runs on relation stacks)
MUTATIONS = {
    "eigen-gram-offdiag": ("leftdef-sl-flat", _offdiag_gram, False),
    "multiplicity-invariance": ("leftdef-sl-flat", _moved_spectrum, False),
    "deficiency-indices": ("extensions-codim1", _wrong_m_plus, True),
    "von-neumann-identity": ("extensions-codim1", _swapped_defect_kernels, True),
    "oracle-agreement": ("friedrichs-codim1-n2", _inverted_oracle, True),
    "membership-classifier-agreement": ("scale-diag-growth", _inverted_classifier, False),
}


def _statuses(golden: str) -> dict:
    report = run_scenario(parse_config((GOLDEN / golden / "config.json").read_text()))
    return {row.name: row.status for row in report.rows}


@pytest.mark.parametrize("check", sorted(MUTATIONS))
def test_mutation_fails_the_check(check, monkeypatch):
    golden, mutate, stacked = MUTATIONS[check]
    assert _statuses(golden)[check] == "PASS"
    batches = []
    mutate(monkeypatch, batches)
    assert _statuses(golden)[check] == "FAIL"
    if stacked:
        assert any(batch and np.prod(batch) > 1 for batch in batches), batches
