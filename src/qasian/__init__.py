"""Classically simulated quantum-preconditioned pricer for arithmetic
Asian options: spectral discretization of the reduced PDE, block-encoded
operator construction, fast inversion with preconditioning, and
amplitude-estimation-style surface readout, cross-checked against
finite-difference and Monte-Carlo oracles."""

from .errors import (QasianError, ValidationError, InfeasibleScaleError,
                     DimensionCapError, SingularFactorError, AliasingError,
                     NodeCollisionError, IllConditionedError,
                     NormConvergenceError)
from .grid import (MarketParams, GridSpec, OperatorSet, make_grid,
                   grid_spec_direct, build_time_derivative,
                   build_eta_operator, build_centered_dft,
                   build_spectral_derivative, build_A1, build_A2,
                   build_rhs, build_operators,
                   eta_nodes, tau1_nodes, psi0)
from .circuits import (StateVector, BlockEncoding, cyclic_shift, lcu,
                       build_ctau1_encoding, encode_diagonal,
                       encode_eta, encode_spectral, be_product, be_lincomb,
                       be_apply)
from .inversion import (QPEConfig, PreconditionReport, window_state,
                        qpe_invert, fast_invert_exact, precondition,
                        solve_system, solve_pricing_system)
from .extraction import (SegmentationPlan, AmplitudeEstimator, Interpolant2D,
                         plan_segments, estimate_window_integral,
                         estimate_rectangle, mock_cheb_nodes, fit_interpolant,
                         differentiate_interpolant, positive_shift,
                         extract_psi_2d)
from .oracle import (PriceQuote, crank_nicolson_solve, monte_carlo_price,
                     price_from_psi, brute_prefix_sum, eta_of)

__version__ = "0.1.0"
