"""Every check can fail: one mutation of the program per check flips its row to FAIL.

Each entry of MUTATIONS names a check, a golden config that runs it (and PASSes it,
`test_golden.py`), and one monkeypatch that breaks what the check verifies. The
relation mutations act on the stacks that `scenarios._by_shape` runs, so they record
the batch shape of every call and the test asserts that a stack of more than one
member was mutated. A check name that a golden report emits and MUTATIONS lacks must
be declared in NOT_YET_MUTATED, which loses the name when its mutation arrives.
"""

import csv
import dataclasses
import math
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


def _weight_off(exponent: float, relative: float):
    """The mutation: the last weight of (|A|+I)^exponent times 1 + relative, wherever
    `hscale._log_weights` gives that exponent's log weights."""
    def mutate(monkeypatch, batches):
        real = hscale._log_weights

        def log_weights(operator, e):
            log_w = real(operator, e)
            if e == exponent:
                log_w[-1] += math.log1p(relative)
            return log_w

        monkeypatch.setattr(hscale, "_log_weights", log_weights)
    return mutate


def _power_off(exponent: float, relative: float):
    """The mutation: the top entry of lambda^exponent, as `SpectralOperator._power` returns
    it, times 1 + relative (on a copy: the kept power stays as computed)."""
    def mutate(monkeypatch, batches):
        real = leftdef.SpectralOperator._power

        def power(self, r):
            powers = real(self, r)
            if r == exponent:
                powers = powers.copy()
                powers[-1] *= 1 + relative
            return powers

        monkeypatch.setattr(leftdef.SpectralOperator, "_power", power)
    return mutate


def _negated_last_theta(monkeypatch, batches):
    """The sweep's last step solves A0 - tMax bb*, not A0 + tMax bb*."""
    real = extensions.theta_sweep

    def theta_sweep(a0, b_map, family):
        *head, (label, theta) = family
        return real(a0, b_map, head + [(label, -theta)])

    monkeypatch.setattr(extensions, "theta_sweep", theta_sweep)


# check name -> (golden config, mutation, whether the check runs on relation stacks). The
# isometry and the pairing each FAIL at 1e-8 on one weight: of the map (|A|+I)^{t/2} at
# t = 0.5, and of (|A|+I)^{-s/2} at s = 2. The equivalence ratios sit 5e-4 inside their
# bounds on this golden, so one numerator weight of (|A|+I)^{s/2} at s = 2 is off by 1e-2
# (3e-3 is the least that flips it). The duality row reads lambda^{r/2} on both sides of
# <x,y>_r and lambda^r on the other, so one entry of lambda^{1/2} (r = 1 on this golden)
# off by 1e-6 moves it to about 1e-7
MUTATIONS = {
    "eigen-gram-offdiag": ("leftdef-sl-flat", _offdiag_gram, False),
    "multiplicity-invariance": ("leftdef-sl-flat", _moved_spectrum, False),
    "deficiency-indices": ("extensions-codim1", _wrong_m_plus, True),
    "von-neumann-identity": ("extensions-codim1", _swapped_defect_kernels, True),
    "oracle-agreement": ("friedrichs-codim1-n2", _inverted_oracle, True),
    "membership-classifier-agreement": ("scale-diag-growth", _inverted_classifier, False),
    "isometry": ("scale-diag-growth", _weight_off(0.25, 1e-8), False),
    "duality-reduction": ("scale-diag-growth", _weight_off(-1.0, 1e-8), False),
    "equivalence-bounds": ("scale-diag-growth", _weight_off(1.0, -1e-2), False),
    "duality(5)": ("leftdef-sl-flat", _power_off(0.5, 1e-6), False),
    "rank-one-interlacing": ("perturb-flat-dirichlet-r1", _negated_last_theta, False),
}

# check names the goldens emit that no entry of MUTATIONS flips yet (ROADMAP item 15)
NOT_YET_MUTATED = {
    "closed-form-lower-bound", "eigen-gram-diag", "eigenvalue-monotone-in-t",
    "friedrichs-domain", "friedrichs-selfadjoint", "laguerre-identity", "limit-crosscheck",
    "lower-bound(4)", "t0-matches-base", "trivial-case-equal",
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


def test_every_golden_check_name_is_mutated_or_declared():
    emitted = set()
    for path in GOLDEN.glob("*/report.csv"):
        with open(path, newline="") as handle:
            emitted |= {row["check-name"] for row in csv.DictReader(handle)}
    assert emitted - MUTATIONS.keys() - NOT_YET_MUTATED == set()
    # a mutation added for a declared name drops it from the set
    assert NOT_YET_MUTATED & MUTATIONS.keys() == set()
    assert NOT_YET_MUTATED <= emitted
