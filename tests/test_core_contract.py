"""Every estimator registry entry reproduces its fit through ``core``.

A FitResult's hyperparameters mean the same thing everywhere: applied to the
batch it was fitted on, through ``core.partition``, ``core.apply_estimator``
and ``core.sure``, they give back the estimate, the SURE value and the group
sizes bit for bit. Checked for every registry entry on every family, with S
as generated (S >= 0) and with random signs on S.
"""

from __future__ import annotations

import numpy as np
import pytest

from auxshrink import (
    DataBatch,
    ScenarioSpec,
    apply_estimator,
    generate,
    loss,
    partition,
    soft_estimate,
    sure,
)
from auxshrink.sim import ESTIMATORS
from auxshrink.tuner import SearchConfig

SPECS = {
    "one-sample-s1": dict(n=600, m=10, aux_variant=3),
    "one-sample-s2": dict(n=1200, m=10, aux_variant=2),
    "two-sample-s1": dict(n=800),
    "two-sample-s2": dict(n=800),
    "asymptotic-s1": dict(n=1000, m=20, aux_variant=1),
    "asymptotic-s2": dict(n=1000, m=20, aux_variant=2),
    "toy": dict(n=500),
}
CFG = SearchConfig(k=2, mn_factor=20.0)


def make_batch(family: str, signed: bool) -> DataBatch:
    batch = generate(ScenarioSpec(family=family, seed=21, **SPECS[family]))
    if not signed:
        return batch
    signs = np.where(np.random.default_rng(22).random(batch.n) < 0.5, -1.0, 1.0)
    return DataBatch(y=batch.y, sigma=batch.sigma, s=batch.s * signs,
                     theta=batch.theta, xi=batch.xi)


@pytest.mark.parametrize("signed", [False, True], ids=["as-generated", "signed"])
@pytest.mark.parametrize("family", sorted(SPECS))
@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_fit_reproduces_through_core(name, family, signed):
    batch = make_batch(family, signed)
    assert (batch.s < 0).any() == signed
    fr = ESTIMATORS[name].fit(batch, CFG)
    assert fr.estimator_name == name
    if fr.hp is None:  # ejs: one group, no hyperparameters
        assert fr.group_sizes.tolist() == [batch.n]
        assert fr.theta_hat.shape == batch.y.shape and np.isfinite(fr.theta_hat).all()
        return
    assert np.array_equal(apply_estimator(batch, fr.hp), fr.theta_hat)
    assert sure(batch, fr.hp) == fr.sure_value
    assert np.array_equal(partition(batch.s, fr.hp.tau).sizes, fr.group_sizes)


def test_signed_screen_is_three_groups():
    batch = make_batch("two-sample-s2", signed=True)
    fr = ESTIMATORS["aux-scr"].fit(batch, CFG)
    tau = fr.hp.tau
    assert tau[0] == np.nextafter(-tau[1], -np.inf)
    assert fr.hp.t[0] == fr.hp.t[2]
    screened = np.abs(batch.s) <= tau[1]
    assert fr.group_sizes[1] == screened.sum()
    np.testing.assert_array_equal(fr.theta_hat[screened], 0.0)


@pytest.mark.parametrize("args, message", [
    (([np.nan, 1.0], [1.0, 1.0], [0.5, 0.5]), "y is not finite at index 0: nan"),
    (([1.0, 2.0], [1.0, np.inf], 0.5), "sigma is not finite at index 1: inf"),
    ((1.0, 1.0, -np.inf), "t is not finite: -inf"),
    (([[1.0, 2.0]], 1.0, [[0.5, np.nan]]), r"t is not finite at index \(0, 1\): nan"),
])
def test_soft_estimate_rejects_non_finite_input(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        soft_estimate(*args)


@pytest.mark.parametrize("theta, theta_hat, message", [
    ([np.nan], [0.0], "theta is not finite at index 0: nan"),
    ([0.0, 1.0], [0.0, -np.inf], "theta_hat is not finite at index 1: -inf"),
])
def test_loss_rejects_non_finite_input(theta, theta_hat, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        loss(theta, theta_hat)
