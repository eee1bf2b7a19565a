"""CAME, Adafactor and Adam on a minimal matrix core, with a benchmark harness."""

from .factored_moment import (
    FactoredEMA,
    FullEMA,
    factored_reconstruct,
    factored_update,
    full_reconstruct,
    full_update,
    generalized_kl,
    nmf_rank1,
)
from .memory_model import (
    MemoryReport,
    ShapeManifest,
    bundled_manifest,
    load_manifest,
    report,
    scale_manifest,
    state_elements,
)
from .optimizers import (
    InvalidConfig,
    OptimizerConfig,
    OptimizerState,
    clip_by_rms,
    make_state,
    state_element_count,
    step_param,
    warmup_lr,
)
from .problems import (
    GradCheckReport,
    Problem,
    SyntheticDataset,
    build_problem,
    finite_diff_grad,
    gradient_report,
    initial_params,
    make_logreg,
    make_mlp1,
    make_quadratic,
    make_rosenbrock,
    rng_from_seed,
)
from .tensor import Matrix, col_sums, outer_quotient, rms, row_sums

__version__ = "0.1.0"
