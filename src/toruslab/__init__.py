"""Numerical laboratory for twisted Dolbeault/Hodge theory on flat complex tori.

Subpackage map:

- ``geometry``  -- tori, Hermitian line bundles, one-parameter families
- ``forms``     -- discrete (p,q)-forms, first-order operators, spectral backend
- ``grid``      -- stencil backend and its Hodge solver, the only user of scipy
- ``hodge``     -- Laplacians, harmonic spaces, Green operators, projections
- ``family``    -- horizontal lifts, Kodaira-Spencer calculus, representatives
- ``curvature`` -- curvature of the direct-image Hilbert field, positivity checks
- ``bls``       -- finite-dimensional Hilbert-field battery (Chern connections,
  Gauss-Griffiths, Schur-complement positivity)
- ``oracle``    -- independent ground truth (theta frames, exact spectra, scans)
- ``cli``       -- command-line front end
"""

__version__ = "0.1.0"
