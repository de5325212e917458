"""Kernel-tier dispatch: route operator calls to the fused C kernels.

A :class:`KernelSet` is the object the tendency engine and the integrator
consult on the ``"fused"`` tier (the default).  It exists only when the
compiled C library loaded: :func:`kernel_set` returns ``None`` — after
one warning per process — when no compiler resolves, and every caller
then runs the reference workspace operators.  Each operator method
either handles the call with a fused kernel and returns the result, or
returns ``None`` (a non-contiguous working array, or a call outside C's
coverage such as the z-gathered ``C`` path), in which case the caller
runs the reference path for that call.  Fallback therefore never
changes results, only speed.

Every fused call is wrapped in a ``repro.obs`` span with category
``"kernel"`` so kernel-level timings appear next to the operator spans in
traces.
"""
from __future__ import annotations

import warnings

import numpy as np

from repro import constants
from repro.kernels import cbackend
from repro.kernels.plans import KernelPlan, kernel_plan
from repro.kernels.stages import smoother_stages
from repro.obs.spans import span

TIERS = ("reference", "fused")

_STAGES = {
    "advection": ("l1_zonal", "l2_meridional", "l3_vertical", "negate"),
    "adaptation": ("pressure_gradient", "coriolis", "omega", "combine"),
    "vertical": (
        "flux_divergence",
        "column_prefix",
        "column_suffix",
        "interface_velocities",
        "phi_prime",
    ),
}

#: whether this process already warned that the C library is unavailable
_warned = False


def _ok(*arrays: np.ndarray) -> bool:
    return all(
        a.flags.c_contiguous and a.dtype == np.float64 for a in arrays
    )


class KernelSet:
    """The fused C kernels over one loaded library, with per-call fallback."""

    tier = "fused"

    def __init__(self, lib) -> None:
        self._lib = lib

    def _register(self, op: str, shape: tuple, stages: tuple, extra=()) -> KernelPlan:
        return kernel_plan(
            op,
            shape,
            extra,
            lambda: KernelPlan(
                op=op,
                shape=tuple(shape),
                stages=stages,
                fn=getattr(self, op if op != "smoothing" else "smooth_field"),
            ),
        )

    # ---- smoothing --------------------------------------------------------

    def smooth_field(self, sm, a: np.ndarray, out: np.ndarray, ws):
        """Fused smoothing of one field; ``None`` if this call can't fuse."""
        if not _ok(a, out):
            return None
        self._register(
            "smoothing", a.shape, smoother_stages(sm),
            (sm.beta_x, sm.beta_y, sm.cross),
        )
        scratch = ws.take(a.shape)
        cbackend.smooth_full_c(
            self._lib, a, out, scratch, sm.beta_x, sm.beta_y, sm.cross
        )
        ws.give(scratch)
        return out

    def smooth_state_into(self, state, out, ws, smoothers):
        """Fused ``S`` over a whole state; ``None`` to fall back."""
        with span("smoothing-fused[c]", "kernel"):
            for name in ("U", "V", "Phi", "psa"):
                res = self.smooth_field(
                    smoothers[name], getattr(state, name), getattr(out, name), ws
                )
                if res is None:
                    return None
            return out

    # ---- the stencil tendencies -------------------------------------------

    def _pf_into(self, psa: np.ndarray, pf: np.ndarray) -> np.ndarray:
        """``P`` with the exact reference op chain (and its guard)."""
        np.add(psa, constants.P_REFERENCE, out=pf)
        np.subtract(pf, constants.P_TOP, out=pf)
        if np.any(pf <= 0):
            raise ValueError(
                "surface pressure must exceed the model-top pressure"
            )
        np.divide(pf, constants.P_REFERENCE, out=pf)
        np.sqrt(pf, out=pf)
        return pf

    def advection(self, state, vd, geom, ws, out, cache):
        """Fused ``L``-tendency; ``None`` if this call can't fuse."""
        U, V, Phi = state.U, state.V, state.Phi
        sdot = vd.sdot_iface
        if not _ok(U, V, Phi, state.psa, sdot, out.U, out.V, out.Phi):
            return None
        kg = self._advec_kgeom(geom, cache)
        with span("advection-fused[c]", "kernel"):
            self._register("advection", U.shape, _STAGES["advection"])
            nz, ny, nx = U.shape
            pf = self._pf_into(state.psa, ws.take(state.psa.shape))
            scratch = {
                "vel": ws.take((nz, ny, nx)),
                "vs": ws.take((nz, ny, nx)),
                "flux": ws.take((nz, ny, nx)),
                "sstag": ws.take((nz + 1, ny, nx)),
                "fbar": ws.take((nz + 1, ny, nx)),
                "p2d": ws.take((3, ny, nx)),
            }
            cbackend.advection_c(
                self._lib, U, V, Phi, pf, sdot, kg.advection, kg.advection_dsig,
                geom.grid.dlambda, geom.grid.dtheta, scratch,
                out.U, out.V, out.Phi,
            )
            out.psa[...] = 0.0
            ws.give(pf, *scratch.values())
        return out

    def _advec_kgeom(self, geom, cache) -> _RowsOnly:
        kg = getattr(cache, "_kernel_geom", None)
        if kg is None:
            kg = _RowsOnly()
            kg.advection = {
                "sin_c": _flat(cache.sin_c3), "sin_v": _flat(cache.sin_v3),
                "pre_c": _flat(cache.pre_c3), "pre_v": _flat(cache.pre_v3),
                "tas_c": _flat(cache.two_a_sin_c3),
                "tas_v": _flat(cache.two_a_sin_v3),
            }
            kg.advection_dsig = _flat(cache.dsig3)
            cache._kernel_geom = kg
        return kg

    def adaptation(self, state, vd, geom, params, ws, out, cache):
        """Fused ``A-hat``-tendency; ``None`` if this call can't fuse."""
        U, V, Phi, psa = state.U, state.V, state.Phi, state.psa
        phi_p = vd.phi_prime
        w_if = vd.w_iface
        col_sum = vd.column_sum
        if not _ok(U, V, Phi, psa, phi_p, w_if, col_sum, out.U, out.V, out.Phi):
            return None
        from repro.operators.adaptation import surface_dissipation
        from repro.operators.vertical import DEFAULT_REFERENCE

        kg = self._adapt_kgeom(cache)
        with span("adaptation-fused[c]", "kernel"):
            self._register("adaptation", U.shape, _STAGES["adaptation"])
            pf = self._pf_into(psa, ws.take(psa.shape))
            pes = ws.take(psa.shape)
            np.power(pf, 2, out=pes)
            np.multiply(pes, constants.P_REFERENCE, out=pes)
            # The reference-temperature profile uses a non-integer power,
            # whose numpy SIMD routine libm does not reproduce bitwise —
            # it stays in numpy, exactly as the reference computes it.
            t_ref_surf = DEFAULT_REFERENCE.temperature(
                psa + constants.P_REFERENCE
            )
            baro = ws.take(psa.shape)
            np.multiply(pf, constants.R_DRY, out=baro)
            np.multiply(baro, t_ref_surf, out=baro)
            b = constants.B_GRAVITY_WAVE
            cbackend.adaptation_c(
                self._lib, U, V, Phi, phi_p, w_if, col_sum, pf, pes, baro,
                kg.adaptation, geom.grid.radius,
                geom.grid.dlambda, geom.grid.dtheta,
                b, b * (1.0 + params.delta_c),
                out.U, out.V, out.Phi,
            )
            d_sa = surface_dissipation(psa, geom)
            np.multiply(d_sa, constants.KAPPA_STAR, out=d_sa)
            np.subtract(d_sa, col_sum, out=d_sa)
            np.multiply(d_sa, constants.P_REFERENCE, out=d_sa)
            np.copyto(out.psa, d_sa)
            ws.give(pf, pes, baro)
        return out

    def _adapt_kgeom(self, cache):
        kg = getattr(cache, "_kernel_geom", None)
        if kg is None:
            kg = _RowsOnly()
            kg.adaptation = {
                "a_sin_c": _flat(cache.a_sin_c3),
                "cot_c": _flat(cache.cot_c3),
                "omcos_c": _flat(cache.two_omega_cos_c3),
                "cot_v": _flat(cache.cot_v3),
                "omcos_v": _flat(cache.two_omega_cos_v3),
                "sig_mid": _flat(cache.sig_mid3),
            }
            cache._kernel_geom = kg
        return kg

    def vertical(self, U, V, Phi, psa, geom, gather, ws, cache):
        """Fused ``C`` diagnostics; ``None`` if this call can't fuse.

        Only the serial / full-column case is fused (no z-gather, no ghost
        levels, identity interface and level maps); everything else runs
        the reference workspace path.
        """
        nz = geom.grid.nz
        if (
            gather is not None
            or geom.gz != 0
            or not cache.k_if_identity
            or not cache.k_lev_identity
            or U.shape[0] != nz
        ):
            return None
        if not _ok(U, V, Phi, psa):
            return None
        from repro.operators.vertical import VerticalDiagnostics

        kg = self._vert_kgeom(geom, cache)
        with span("vertical-fused[c]", "kernel"):
            self._register("vertical", U.shape, _STAGES["vertical"])
            ny_w, nx_w = psa.shape
            pf = self._pf_into(psa, ws.take((ny_w, nx_w)))
            div_p = ws.take((nz, ny_w, nx_w))
            col_sum = ws.take((ny_w, nx_w))
            pw = ws.take((nz + 1, ny_w, nx_w))
            w = ws.take((nz + 1, ny_w, nx_w))
            sdot = ws.take((nz + 1, ny_w, nx_w))
            phi_prime = ws.take((nz, ny_w, nx_w))
            s2d = ws.take((3, ny_w, nx_w))
            cbackend.vertical_c(
                self._lib, U, V, Phi, pf, kg.vertical,
                geom.grid.dlambda, geom.grid.dtheta,
                constants.B_GRAVITY_WAVE,
                div_p, col_sum, pw, w, sdot, phi_prime, s2d,
            )
            ws.give(s2d)
        return VerticalDiagnostics(
            div_p=div_p,
            column_sum=col_sum,
            pw_iface=pw,
            w_iface=w,
            sdot_iface=sdot,
            phi_prime=phi_prime,
            p_fac=pf,
        )

    def _vert_kgeom(self, geom, cache):
        kg = getattr(cache, "_kernel_geom", None)
        if kg is None:
            kg = _RowsOnly()
            kg.vertical = {
                "sin_v": _flat(geom.sin_v),
                "a_sin_c": _flat(cache.a_sin_c3),
                "dsig": _flat(cache.dsig_own3),
                "ratio": _flat(cache.ratio_own3),
                "sig_if": _flat(cache.sig_if3),
            }
            cache._kernel_geom = kg
        return kg

    def describe(self) -> dict:
        """Summary for traces / bench reports."""
        return {
            "tier": self.tier,
            "backend": "c",
            "coverage": ["smoothing", "advection", "adaptation", "vertical"],
        }


class _RowsOnly:
    """Attribute bag for per-cache flat metric rows."""


def _flat(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64).ravel())


def kernel_set(tier: str = "fused") -> KernelSet | None:
    """The kernel set for a tier: ``None`` for the reference tier, and for
    the fused tier when the C library cannot be built (warned once)."""
    if tier not in TIERS:
        raise ValueError(f"unknown kernel tier {tier!r}; use {TIERS}")
    if tier == "reference":
        return None
    global _warned
    try:
        return KernelSet(cbackend.load_library())
    except cbackend.KernelBuildError as exc:
        if not _warned:
            _warned = True
            warnings.warn(
                f"fused C kernels unavailable ({exc}); "
                "running the reference operators",
                RuntimeWarning,
                stacklevel=2,
            )
        return None
