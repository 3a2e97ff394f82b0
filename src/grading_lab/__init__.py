"""Qudit spin-chain operator algebra with string dressing and quasifree dynamics.

The package keeps two synchronized views of every object: an exact
symbolic layer (integer phase arithmetic on clock/shift monomials) and a
dense matrix layer on small chains that serves as the brute-force oracle
for every algebraic claim.
"""

from .weyl import (
    AlgebraElement,
    GradingParams,
    WeylMonomial,
    commutation_phase,
    gauge_project_symbolic,
    gauge_rotate,
    lattice_shift,
    matrix_unit,
    mono_adjoint,
    mono_mul,
)
from .dense import (
    BlockingReport,
    ChainSpec,
    DenseOperator,
    DimensionCapError,
    block_sites,
    clock_shift,
    gauge_project,
    gauge_unitary,
    op_norm,
    realize,
    sector_decompose,
)
from .dressing import (
    BilinearConnection,
    ExchangeReport,
    ShiftDefect,
    bilinear_connection,
    dressed_commutation_report,
    dressed_matrix_unit,
    dressed_weyl,
    dressed_weyl_rs,
    dressing_string,
    exchange_exponent,
    shift_covariance_defect,
)
from .oneparticle import (
    ConstraintReport,
    DecaySeries,
    Hopping,
    OneParticleVector,
    blocked_symbol_constraints,
    evolve,
    fractional_shift,
    particle_shift,
    sector_translate,
    sup_decay,
    symbol,
)
from .dynamics import (
    FREE_FLOW_RATE_D2,
    QuadraticModel,
    claimed_commutator_audit,
    commutator_decay,
    d2_effective_hopping,
    gauge_invariance_defect,
    heisenberg_evolve,
    reconstruct_spin_evolution,
    smear,
    span_residual,
)
from .states import CorrelationSeries, clustering_report, trace_state, two_point

__version__ = "0.1.0"
