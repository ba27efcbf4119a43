"""Verification lab for variational-inequality operator properties.

Exact piecewise calculus, executable property certificates along explicit
sequences, and a desk-scale projected-gradient solver for the discretized
problem.
"""

from .piecewise import (
    ExactReal,
    Indicator,
    Monomial,
    PiecewiseConstFn,
    PiecewiseLinearFn,
    abs_pow_integral,
    common_refinement,
    derivative,
    dyadic_indicators,
    lin_comb,
    plap_pairing,
    pow_norm,
    test_integral,
)
from .families import (
    L2SeqVector,
    gap_negativity_threshold,
    l2_pairing,
    sawtooth,
    scaled_hat,
)
from .certificates import (
    Certificate,
    PairingSequenceReport,
    WeakConvergenceReport,
    equilibrium_gap,
    holder_boundedness_check,
    ky_fan_violation_certificate,
    l2_unit_limit_certificate,
    monotone_gap_check,
    pairing_sequence,
    pseudomonotone_premise_audit,
    weak_convergence_evidence,
)
from .solver import (
    Ball,
    Box,
    DiscreteVI,
    GalerkinOperator,
    SolveResult,
    assemble_vi,
    extragradient_solve,
    load_problem,
    residual,
    spg_solve,
)

__version__ = "0.1.0"
