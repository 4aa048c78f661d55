"""Executable finite-scale Scott analysis, independent axiomatization
transforms, and independent set-family constructions, with brute-force
verification oracles for every construction."""

__version__ = "0.1.0"
__all__ = ["__version__"]
