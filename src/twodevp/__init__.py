"""Two-dimensional eigenvalue problems for Hermitian pairs.

Find real (mu, lam) and a unit complex vector x with

    (A - mu*C) x = lam*x,   x^H C x = 0,

for Hermitian A and indefinite Hermitian C, via a projected Rayleigh
quotient iteration, together with an independent eigencurve-scanning
oracle and an experiment harness for convergence-rate verification.
"""

from .model import HermitianPair, Triplet, TripletStack, residual, jacobian, jacobian_hat
from .model import load_pair, save_pair, load_triplet, save_triplet
from .curves import eig_at, trace_curves, lambda_double_prime, eigvec_derivative
from .classify import classify, multiplicity, eigvec_set, Kind, Target
from .angles import canonical_angles, dist_to_set
from .rqi import step, solve, projection_basis, solve_2x2, Status
from .oracle import scan, HitKind
from .harness import (
    convergence_order,
    perturbed_start,
    perturbed_starts,
    scaling_study,
    ritz_approx_study,
    conditioning_study,
    random_pair,
    random_pair_with_crossing,
)

__all__ = [
    "HermitianPair", "Triplet", "TripletStack", "residual", "jacobian", "jacobian_hat",
    "load_pair", "save_pair", "load_triplet", "save_triplet",
    "eig_at", "trace_curves", "lambda_double_prime", "eigvec_derivative",
    "classify", "multiplicity", "eigvec_set", "Kind", "Target",
    "canonical_angles", "dist_to_set",
    "step", "solve", "projection_basis", "solve_2x2", "Status",
    "scan", "HitKind",
    "convergence_order", "perturbed_start", "perturbed_starts", "scaling_study",
    "ritz_approx_study", "conditioning_study", "random_pair", "random_pair_with_crossing",
]

__version__ = "0.1.0"
