"""The merge kernel's output check (DESIGN.md D9, "Merge output check").

Merge products skip the ``Fingerprint`` constructor's checks, so every
merge tier checks its own output: the native kernels (cc, numba and
their pure twin) verify that every value is finite, every extent
non-negative and the starts non-decreasing, and the NumPy path runs
``validate_sample_array``.  Merging ``x=1e308, dx=1e308`` with
``x=-1e308, dx=1e308`` overflows an x extent to ``inf``, which the
constructor refused before; it must raise ``ValueError`` on every tier.
"""

import numpy as np
import pytest

from repro.core import _ckernel, kernels
from repro.core.config import StretchConfig
from repro.core.fingerprint import Fingerprint
from repro.core.merge import merge_fingerprints
from repro.core.sample import OVERLAP_ATOL

CFG = StretchConfig()
ARGS = (CFG.w_sigma, CFG.w_tau, CFG.phi_max_sigma_m, CFG.phi_max_tau_min)

FAR_EAST = np.array([[1e308, 1e308, 0.0, 10.0, 0.0, 30.0]])
FAR_WEST = np.array([[-1e308, 1e308, 0.0, 10.0, 5.0, 30.0]])
#: Two rows a side, far apart in time: the merge keeps two rows, so
#: with reshape the check runs after the reshape sweep.
TWICE_EAST = np.vstack([FAR_EAST, FAR_EAST + [0.0, 0.0, 0.0, 0.0, 600.0, 0.0]])
TWICE_WEST = np.vstack([FAR_WEST, FAR_WEST + [0.0, 0.0, 0.0, 0.0, 600.0, 0.0]])
PAIRS = [(FAR_EAST, FAR_WEST), (TWICE_EAST, TWICE_WEST)]


def tiers():
    """``(name, COMPILED_TIER, merge entry)`` for every tier on this host."""
    out = [("numpy", None, None), ("pure", "pure", kernels.merge_samples_pure)]
    if _ckernel.LIB is not None:
        out.append(("cc", "cc", kernels._bind_cc()[6]))
    if kernels.NUMBA_AVAILABLE:
        out.append(("numba", "numba", kernels.merge_samples_arrays))
    return out


TIERS = tiers()


@pytest.fixture(params=TIERS, ids=[t[0] for t in TIERS])
def tier(request, monkeypatch):
    name, compiled_tier, entry = request.param
    monkeypatch.setattr(kernels, "COMPILED_TIER", compiled_tier)
    if entry is not None:
        monkeypatch.setattr(kernels, "merge_samples_arrays", entry)
    return name


@pytest.mark.parametrize("reshape", [False, True])
@pytest.mark.parametrize("east,west", PAIRS, ids=["one-row", "two-rows"])
def test_overflowing_merge_raises(tier, reshape, east, west):
    a = Fingerprint("a", east)
    b = Fingerprint("b", west)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            merge_fingerprints(a, b, CFG, reshape=reshape)
        with pytest.raises(ValueError, match="finite"):
            merge_fingerprints(b, a, CFG, reshape=reshape)


@pytest.mark.parametrize("reshape", [False, True])
def test_healthy_merge_passes_the_check(tier, reshape):
    a = Fingerprint("a", [[0.0, 10.0, 0.0, 10.0, 0.0, 30.0], [50.0, 10.0, 0.0, 10.0, 60.0, 30.0]])
    b = Fingerprint("b", [[5.0, 10.0, 0.0, 10.0, 20.0, 30.0], [9.0, 1.0, 3.0, 1.0, 70.0, 5.0]])
    merged = merge_fingerprints(a, b, CFG, reshape=reshape)
    # What the public constructor would build from the same rows.
    rebuilt = Fingerprint(merged.uid, merged.data, merged.count, merged.members)
    assert merged.data.tobytes() == rebuilt.data.tobytes()
    assert merged.data.flags.c_contiguous
    assert (merged.count, merged.members) == (2, ("a", "b"))


@pytest.mark.skipif(_ckernel.LIB is None, reason="no cc kernel on this host")
@pytest.mark.parametrize("reshape", [0, 1])
@pytest.mark.parametrize("east,west", PAIRS, ids=["one-row", "two-rows"])
def test_c_kernel_returns_the_check_code(reshape, east, west):
    long = np.ascontiguousarray(east)
    short = np.ascontiguousarray(west)
    out = np.empty(short.shape)
    n_out = _ckernel.LIB.glove_merge_samples(
        _ckernel.address(long, _ckernel.F64), long.shape[0],
        _ckernel.address(short, _ckernel.F64), short.shape[0],
        1.0, 1.0, *ARGS, reshape, OVERLAP_ATOL, _ckernel.address(out, _ckernel.F64),
    )
    assert n_out == -2
    assert np.isinf(out[:, 1]).all()


@pytest.mark.parametrize("east,west", PAIRS, ids=["one-row", "two-rows"])
def test_pure_twin_raises_with_the_shared_message(east, west):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=kernels.MERGE_CHECK_FAILED):
        kernels.merge_samples_pure(east, west, 1.0, 1.0, *ARGS, True, OVERLAP_ATOL)
