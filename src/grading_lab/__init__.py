"""Qudit spin-chain operator algebra with string dressing and quasifree dynamics.

The package keeps two synchronized views of every object: an exact
symbolic layer (integer phase arithmetic on clock/shift monomials) and a
dense matrix layer on small chains that serves as the brute-force oracle
for every algebraic claim.  Callers import the submodules
(``grading_lab.weyl``, ``grading_lab.dense``, ...); the package binds
no names of its own beyond ``__version__``.
"""

__version__ = "0.1.0"
