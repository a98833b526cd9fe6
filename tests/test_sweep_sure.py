"""`sweep_tau` scores its breakpoints in stacks; each point must equal `core.sure`.

The sweep evaluates the SURE of many (tau, t1, t2) rows at once
(`core._sure_rows`, in chunks of rows). These tests compare every point of
the curve with a separate `core.sure` call bit for bit, on every scenario
family, at sizes that are not multiples of numpy's 128-element summation
block and with signed auxiliary sequences, and pin `core.sure` itself to the
one-coordinate-vector sum it has always computed.
"""

from __future__ import annotations

import numpy as np
import pytest

from auxshrink import DataBatch, HyperParams, ScenarioSpec, SearchConfig, generate, sure, sweep_tau
from auxshrink.sim import FAMILIES

SIZES = {
    "one-sample-s1": (601, 1280),
    "one-sample-s2": (1001, 1283),
    "two-sample-s1": (777, 1024),
    "two-sample-s2": (1001, 5000),
    "asymptotic-s1": (1001, 1280),
    "asymptotic-s2": (999, 1409),
    "toy": (503, 640),
}


def _batch(family: str, n: int, signed: bool) -> DataBatch:
    variant = 2 if family.startswith(("one-sample", "asymptotic")) else None
    m = 20 if variant is not None else None
    batch = generate(ScenarioSpec(family=family, n=n, m=m, aux_variant=variant, seed=n))
    if not signed:
        return batch
    signs = np.where(np.random.default_rng(n).random(n) < 0.5, -1.0, 1.0)
    return DataBatch(y=batch.y, sigma=batch.sigma, s=batch.s * signs,
                     theta=batch.theta, xi=batch.xi)


def _cases():
    for family in FAMILIES:
        for n in SIZES[family]:
            for signed in (False, True):
                yield pytest.param(family, n, signed, id=f"{family}-{n}-{'signed' if signed else 'abs'}")


@pytest.mark.parametrize("family,n,signed", list(_cases()))
def test_sweep_curve_equals_pointwise_sure(family, n, signed):
    batch = _batch(family, n, signed)
    for hybrid in (True, False):
        curve = sweep_tau(batch, SearchConfig(k=2, hybrid=hybrid))
        pointwise = np.array([
            sure(batch, HyperParams(tau=[tau], t=[t1, t2]))
            for tau, t1, t2 in zip(curve.tau_values, curve.t1_values, curve.t2_values)
        ])
        assert np.array_equal(curve.sure_values, pointwise)


@pytest.mark.parametrize("n", [1, 127, 129, 1001, 8193, 20011])
def test_sure_is_the_plain_vector_sum(n):
    rng = np.random.default_rng(n)
    sigma = rng.uniform(0.3, 2.0, n)
    s = rng.normal(0.0, 1.0, n)
    batch = DataBatch(y=rng.normal(0.0, 2.0, n) * sigma, sigma=sigma, s=s)
    hp = HyperParams(tau=[-0.2, 0.7], t=[0.4, 1.3, 2.2])
    t_per = hp.t[np.searchsorted(hp.tau, s, side="left")]
    s2 = sigma**2
    z = np.abs(batch.y) / sigma
    inner = s2 * np.minimum(z, t_per) ** 2 - 2.0 * s2 * (z <= t_per)
    assert sure(batch, hp) == float((s2.sum() + inner.sum()) / n)
