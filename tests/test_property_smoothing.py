"""Property-based tests: the smoothing offset split is exact for any
coefficients and fields — the identity behind the former/later fusion."""
import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.operators.smoothing import (
    FieldSmoother,
    OFFSETS_FULL,
    OFFSETS_L,
    OFFSETS_L_PRIME,
    OFFSETS_R,
    OFFSETS_R_PRIME,
)

fields = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 3), st.integers(5, 12), st.integers(5, 12)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
)

betas = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(a=fields, bx=betas, by=betas, cross=st.booleans())
def test_offset_decomposition_exact(a, bx, by, cross):
    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=cross)
    total = sm.partial(a, OFFSETS_FULL)
    full = sm.full(a)
    assert np.allclose(total, full, rtol=1e-12, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(a=fields, bx=betas, by=betas)
def test_former_plus_later_is_full(a, bx, by):
    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=True)
    full = sm.full(a)
    for former, later in (
        (OFFSETS_L, OFFSETS_L_PRIME),
        (OFFSETS_R, OFFSETS_R_PRIME),
    ):
        split = sm.partial(a, former) + sm.partial(a, later)
        assert np.allclose(split, full, rtol=1e-12, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(a=fields, bx=betas, by=betas, cross=st.booleans())
def test_constant_fields_invariant(a, bx, by, cross):
    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=cross)
    const = np.full_like(a, 3.25)
    out = sm.full(const)
    # delta^4 of a constant is zero everywhere (periodic roll included)
    assert np.allclose(out, const, rtol=1e-12, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(a=fields, bx=st.floats(0.01, 0.5), by=st.floats(0.01, 0.5))
def test_smoothing_is_linear(a, bx, by):
    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=True)
    out2 = sm.full(2.0 * a)
    assert np.allclose(out2, 2.0 * sm.full(a), rtol=1e-12, atol=1e-8)


strip_fields = st.integers(2, 3).flatmap(
    lambda nd: hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(6, 14), st.integers(5, 12))
        if nd == 3
        else st.tuples(st.integers(6, 14), st.integers(5, 12)),
        elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
    )
)


@settings(max_examples=60, deadline=None)
@given(
    a=strip_fields, bx=betas, by=betas, cross=st.booleans(),
    offsets=st.sampled_from(
        (OFFSETS_L, OFFSETS_L_PRIME, OFFSETS_R, OFFSETS_R_PRIME)
    ),
    data=st.data(),
)
def test_strip_window_partial_equals_whole_array(
    a, bx, by, cross, offsets, data
):
    """The CA strip helper's row window gives the whole-array partial's
    strip rows bit for bit (the window's roll wrap never reaches them)."""
    from repro.core.comm_avoiding import STRIP, strip_partial

    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=cross)
    ny = a.shape[-2]
    r0 = data.draw(st.integers(STRIP, ny - 2 * STRIP), label="r0")
    windowed = strip_partial(sm, a, r0, offsets)
    whole = sm.partial(a, offsets)[..., r0:r0 + STRIP, :]
    assert windowed.shape == whole.shape
    assert np.array_equal(windowed, whole)
    assert np.array_equal(np.signbit(windowed), np.signbit(whole))
