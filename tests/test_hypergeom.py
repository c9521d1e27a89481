import math

import numpy as np
import pytest

from loracell import UnsupportedDomainError, hyp2f1, hyp2f1_oracle, hypergeom
from loracell.hypergeom import B_GAP

# Pinned with the quadrature oracle (independently cross-checked at 40-digit
# precision) before the series implementation was written.
F_ETA275_M37 = 0.4831186105713560     # 2F1(1, 2/2.75; 1+2/2.75; -3.7)
F_B23_M05 = 0.8461156815805372        # 2F1(1, 2/3; 5/3; -0.5)


def test_value_at_zero_is_exactly_one():
    assert hyp2f1(1.0, 0.5, 1.5, 0.0) == 1.0
    assert hyp2f1(1.0, 0.3, 1.3, -0.0) == 1.0
    assert hyp2f1_oracle(1.0, 0.7, 1.7, 0.0) == 1.0


def test_logarithmic_identity_b_equal_one():
    # 2F1(1,1;2;-x) = log(1+x)/x
    assert hyp2f1(1.0, 1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert hyp2f1_oracle(1.0, 1.0, 2.0, -4.0) == pytest.approx(math.log(5.0) / 4.0,
                                                               rel=1e-12)
    for x in np.logspace(-3, 3, 20):
        expected = math.log1p(x) / x
        assert hyp2f1(1.0, 1.0, 2.0, -float(x)) == pytest.approx(expected, rel=1e-12)


def test_pinned_model_family_values():
    b = 2.0 / 2.75
    assert hyp2f1(1.0, b, 1.0 + b, -3.7) == pytest.approx(F_ETA275_M37, rel=1e-12)
    assert hyp2f1(1.0, 2.0 / 3.0, 5.0 / 3.0, -0.5) == pytest.approx(F_B23_M05, rel=1e-12)


def test_monotone_increasing_toward_zero():
    b = 2.0 / 2.75
    xs = -np.logspace(5, -5, 60)
    values = [hyp2f1(1.0, b, 1.0 + b, float(x)) for x in xs]
    assert np.all(np.diff(values) > 0)
    assert 0.0 < values[0] < values[-1] <= 1.0


@pytest.mark.parametrize("eta", [2.1, 2.75, 4.0, 2.0 / (1.0 - 2e-5), 2.0 / (1.0 - 1e-4)])
def test_series_agrees_with_oracle(eta):
    b = 2.0 / eta
    for ax in np.logspace(-6, 6, 60):
        got = hyp2f1(1.0, b, 1.0 + b, -float(ax))
        ref = hyp2f1_oracle(1.0, b, 1.0 + b, -float(ax))
        assert got == pytest.approx(ref, rel=1e-10)


def test_branch_boundaries_are_continuous():
    b = 2.0 / 2.75
    for edge in (-0.9, -8.0):
        left = hyp2f1(1.0, b, 1.0 + b, edge - 1e-9)
        right = hyp2f1(1.0, b, 1.0 + b, edge + 1e-9)
        assert left == pytest.approx(right, rel=1e-8)


def test_oracle_self_consistency_under_refinement(monkeypatch):
    monkeypatch.setattr(hypergeom, "_ORACLE_ABS_TOL", 1e-12)
    coarse = hyp2f1_oracle(1.0, 2.0 / 3.0, 5.0 / 3.0, -0.5)
    monkeypatch.setattr(hypergeom, "_ORACLE_ABS_TOL", 5e-13)
    fine = hyp2f1_oracle(1.0, 2.0 / 3.0, 5.0 / 3.0, -0.5)
    assert abs(coarse - fine) < 1e-12


@pytest.mark.parametrize(
    "a,b,c,x",
    [
        (2.0, 0.5, 1.5, -1.0),       # a != 1
        (1.0, 0.0, 1.0, -1.0),       # b out of (0, 1]
        (1.0, 1.5, 2.5, -1.0),
        (1.0, 1.0 - 1e-9, 2.0 - 1e-9, -1.0),   # too close to the log case
        (1.0, 1.0 - 5e-6, 2.0 - 5e-6, -1.0),
        (1.0, 0.5, 1.6, -1.0),       # c != 1 + b
        (1.0, 0.5, 1.5, 0.5),        # positive argument
        (1.0, 0.5, 1.5, math.nan),
    ],
)
def test_unsupported_family_raises(a, b, c, x):
    with pytest.raises(UnsupportedDomainError):
        hyp2f1(a, b, c, x)
    with pytest.raises(UnsupportedDomainError):
        hyp2f1_oracle(a, b, c, x)


@pytest.mark.parametrize("b", [2.0 / 2.1, 2.0 / 2.75, 0.5, 2.0 / 6.0, 1.0])
def test_array_equals_scalar_calls_exactly(b):
    xs = np.concatenate([-np.logspace(-8, 10, 301), [0.0, -0.0, -1.0]])
    got = hyp2f1(1.0, b, 1.0 + b, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    for x, value in zip(xs, got):
        scalar = hyp2f1(1.0, b, 1.0 + b, float(x))
        assert type(scalar) is float
        assert scalar == value
    grid = xs[:300].reshape(20, 15)
    assert np.array_equal(hyp2f1(1.0, b, 1.0 + b, grid), got[:300].reshape(20, 15))


@pytest.mark.parametrize("bad", [1e-300, 0.5, math.inf, math.nan])
@pytest.mark.parametrize("position", [0, 7, 15])
def test_array_with_one_bad_element_raises(bad, position):
    xs = -np.linspace(0.0, 50.0, 16)
    xs[position] = bad
    with pytest.raises(UnsupportedDomainError):
        hyp2f1(1.0, 0.5, 1.5, xs)


@pytest.mark.parametrize("b", [2.0 / 2.75, 1.0])
def test_array_zeros_give_exactly_one(b):
    xs = np.array([-3.0, 0.0, -1e6, -0.0, 0.0])
    got = hyp2f1(1.0, b, 1.0 + b, xs)
    assert got[1] == got[3] == got[4] == 1.0
    assert np.all(got[[0, 2]] < 1.0)
    assert np.array_equal(hyp2f1(1.0, b, 1.0 + b, np.zeros(4)), np.ones(4))
    assert hyp2f1(1.0, b, 1.0 + b, np.array([])).shape == (0,)


def test_array_logarithmic_case_matches_log1p():
    s = np.logspace(-10, 10, 401)
    got = hyp2f1(1.0, 1.0, 2.0, -s)
    expected = np.array([math.log1p(v) / v for v in s])
    np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)


def test_gap_edge_is_accepted_and_accurate():
    # b = 1 - B_GAP is the largest accepted b below 1; the next float up is rejected
    b = 1.0 - B_GAP
    for x in (-0.5, -2.0, -1e3):
        assert math.isclose(hyp2f1(1.0, b, 1.0 + b, x), hyp2f1_oracle(1.0, b, 1.0 + b, x),
                            rel_tol=1e-10, abs_tol=0.0)
    inside = float(np.nextafter(b, 1.0))
    with pytest.raises(UnsupportedDomainError, match="too close to 1"):
        hyp2f1(1.0, inside, 1.0 + inside, -2.0)
