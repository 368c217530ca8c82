"""Finite compressions of spectral-projection sandwiches, witness-sequence
protocols, and the extension index ladder for two boundary-value models
(the unit interval and the unit disc).

The public names below load their module on first access (PEP 562), so
importing the package loads no numerical library; `noncompact.cli` relies on
that to set the BLAS thread count before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining module.
_EXPORTS = {
    "SweepProfile": "analysis",
    "WitnessReport": "analysis",
    "compression_sweep": "analysis",
    "singular_values": "analysis",
    "witness_protocol": "analysis",
    "aps_index": "aps",
    "aps_kernel_dims": "aps",
    "kernel_function_residual": "aps",
    "DiscCompression": "disc",
    "DiscMode": "disc",
    "assemble_disc_compression": "disc",
    "disc_matrix_element": "disc",
    "disc_witness": "disc",
    "FourierMode": "interval",
    "IntervalCompression": "interval",
    "WitnessVector": "interval",
    "assemble_interval_compression": "interval",
    "interval_witness": "interval",
    "position_matrix_element": "interval",
    "QuadratureRule": "quadrature",
    "gauss_legendre_unit": "quadrature",
    "oracle_disc_element": "quadrature",
    "radial_integral": "quadrature",
    "BesselZeroTable": "specfun",
    "bessel_i": "specfun",
    "bessel_j": "specfun",
    "bessel_zero": "specfun",
    "bessel_zeros": "specfun",
    "digamma": "specfun",
    "trigamma": "specfun",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
