"""Otsuki tori: minimal SO(2)-invariant tori in the 3-sphere.

Construction from the rational rotation label, the induced Laplace-Beltrami
spectra via a family of periodic Sturm-Liouville problems, and numerical
verification that the metric is extremal for the eigenvalue functional at
index 2p - 1.

Import each name from its module: ``otsuki.geometry``, ``otsuki.numerics``
or ``otsuki.spectral`` (the only one that loads scipy: for ARPACK in
``eigen_low``, and for LAPACK where numpy ships no OpenBLAS of its own).
"""

__version__ = "0.1.0"
