"""Numerical toolkit for phase/modulus quantization on the positive discrete series.

Modules
-------
specfun
    Log-Gamma, one Gamma-weighted series rule, and modified Bessel functions.
repalg
    Truncated number-basis matrices of the K generators and algebra checks.
phaseops
    Self-adjoint cos/sin phase operators, diagonal identities, spectra.
bgstates
    Barut-Girardello coherent states: moments, completeness, k-bound scan.
fockreal
    Bosonic realizations: Holstein-Primakoff, Dirac/Susskind-Glogower,
    squared boson, two-mode, and standard-coherent-state expectations.
nfm
    Classical interference observables and the quantum reconstruction pipeline.
cli
    Command-line driver with reproducible CSV/JSON outputs.
"""

__version__ = "0.1.0"

# the numeric modules in dependency order: the order `verify` runs its
# checks in, and the choices of `phasequant verify-all --module`
MODULE_ORDER = ("specfun", "repalg", "phaseops", "bgstates", "fockreal", "nfm")

__all__ = ["__version__", "MODULE_ORDER"]
