import numpy as np
import pytest

import oracles
from noncompact import aps

SAMPLES = np.linspace(0.1, 0.9, 17)


def test_kernel_dims_ladder():
    assert aps.aps_kernel_dims(0) == (0, 0)
    assert aps.aps_kernel_dims(3) == (3, 0)
    assert aps.aps_kernel_dims(1) == (1, 0)
    assert aps.aps_kernel_dims(-1) == (0, 1)
    assert aps.aps_kernel_dims(-2) == (0, 2)


def test_index_equals_cut():
    for cut in range(-10, 11):
        dim_plus, dim_minus = aps.aps_kernel_dims(cut)
        assert aps.aps_index(cut) == dim_plus - dim_minus == cut


def test_index_jumps_by_one():
    indices = [aps.aps_index(cut) for cut in range(-10, 11)]
    assert np.all(np.diff(indices) == 1)


def test_kernel_residuals_positive_chirality():
    for cut in (1, 2, 5):
        for n in range(cut):
            residual, boundary_ok = oracles.kernel_function_residual(cut, n, "+", SAMPLES)
            assert residual < 1e-10
            assert boundary_ok


def test_kernel_residuals_negative_chirality():
    for cut in (-1, -3, -5):
        for n in range(-cut):
            residual, boundary_ok = oracles.kernel_function_residual(cut, n, "-", SAMPLES)
            assert residual < 1e-10
            assert boundary_ok


def test_zero_cut_has_no_kernel():
    with pytest.raises(ValueError, match="not a kernel element"):
        oracles.kernel_function_residual(0, 0, "+", SAMPLES)
    with pytest.raises(ValueError, match="not a kernel element"):
        oracles.kernel_function_residual(0, 0, "-", SAMPLES)


def test_out_of_range_kernel_rejected():
    with pytest.raises(ValueError, match="not a kernel element"):
        oracles.kernel_function_residual(2, 2, "+", SAMPLES)
    with pytest.raises(ValueError, match="not a kernel element"):
        oracles.kernel_function_residual(-1, 1, "-", SAMPLES)
    with pytest.raises(ValueError, match="not a kernel element"):
        oracles.kernel_function_residual(3, 0, "-", SAMPLES)


def test_argument_validation():
    with pytest.raises(ValueError):
        oracles.kernel_function_residual(1, 0, "x", SAMPLES)
    with pytest.raises(ValueError):
        oracles.kernel_function_residual(1, -1, "+", SAMPLES)
    with pytest.raises(ValueError):
        oracles.kernel_function_residual(1, 0, "+", [0.0, 0.5])


def test_noncompact_extension_kernel_family():
    # The maximal negative-chirality extension has r^n e^{-in t} in its kernel
    # for every n, so that kernel is infinite dimensional.
    residuals = [oracles.kernel_mode_residual(n, SAMPLES) for n in range(33)]
    assert max(residuals) < 1e-10
