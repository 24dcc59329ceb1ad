"""Physical constants and the shared numerical tolerances.

Tests import these same values so the library and its checks cannot drift
apart.
"""

# CODATA 2018.
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J / K

# Density-matrix validity.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Transfer-tensor (single-qubit map) validity.
MAP_TOL = 1e-12

# An operating angle theta within this of pi/2 is the optimal point.
OPTIMAL_POINT_TOL = 1e-12

# Static-path treatment is a low-frequency approximation; warn beyond this
# noise-to-splitting ratio.
SPA_SIGMA_RATIO_WARN = 0.2

# Fluctuator ensembles must realize the requested total variance.
ENSEMBLE_VARIANCE_RTOL = 1e-9

# Default relative tolerance for disentanglement-time root finding.
ESD_RELATIVE_TOL = 1e-9
