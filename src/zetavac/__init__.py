"""Zeta-regularized vacuum expectation values on truncated Fourier bases."""

from .analysis import (
    ConvergenceSeries,
    ExponentialFit,
    WindowedFit,
    fit_exponential,
    fit_exponential_window,
    relative_errors,
)
from .gauge import (
    ZetaRatioSample,
    ZGrid,
    damped_trace_ratio,
    denominator_zero_scan,
    gauge_ratio,
    ratio_convergence_scan,
)
from .models import (
    FreeFieldParams,
    HydrogenParams,
    fock_zeta_ratio,
    freefield_zeta_ratio,
    hydrogen_element,
    hydrogen_matrix,
    log_gamma,
    position_element,
    position_matrix,
)
from .pauli import (
    PauliCoefficients,
    decompose,
    reconstruct,
)
from .spectral import (
    EigenSystem,
    eig_hermitian,
    require_hermitian,
)
from .truncation import (
    DiscretizedVacuum,
    SobolevWeight,
    index_of_mode,
    mode_list,
    project_operator,
    schatten_convergence_probe,
    strong_convergence_probe,
    vacuum_state,
)
from .vqe import (
    AnsatzSpec,
    MinimizeResult,
    OptimizerConfig,
    apply_ansatz,
    energy,
    minimize,
    sampled_energy,
    warm_start_embed,
    warm_started_chain,
)

__version__ = "0.1.0"
