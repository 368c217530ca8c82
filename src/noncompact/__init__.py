"""Finite compressions of spectral-projection sandwiches, witness-sequence
protocols, and the extension index ladder for two boundary-value models
(the unit interval and the unit disc).

Importing the package loads no numerical library; `noncompact.cli` relies on
that to set the BLAS thread count before numpy starts.  Import the modules
(`analysis`, `aps`, `cli`, `disc`, `interval`, `specfun`) directly; numpy is
their one runtime dependency.
"""

__version__ = "0.1.0"
