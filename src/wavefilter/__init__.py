"""Wave-filtering prediction for linear dynamical systems.

Filters are the top eigenvectors of a fixed Hankel matrix, scaled by the
quarter power of their eigenvalues; predictions are linear in the
convolutions of the input sequence with those filters. The package
provides the filter construction (eigendecomposition and a stable
operator route), featurization, online and batch learners, an exact
relaxation oracle for known systems, simulators, baselines, and a
verification suite, all behind a CLI. Each public name is imported from
its module, as in ``from wavefilter.filters import build_filter_bank``.
"""

from . import (_blas, _lapack, baselines, batch, experiments, filters, hankel, io, lds, ode,
               online, relaxation, verify)

__version__ = "0.1.0"
