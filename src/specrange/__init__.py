"""Joint numerical ranges of spin observables and tight mean-value bounds."""

from .bounds import (
    BoundReport,
    MeasureKind,
    MeasureResult,
    combined,
    measure,
    normalize_mean,
    optimize_bounds,
    region_contains,
    triviality_check,
)
from .definetti import (
    convergence_sweep,
    g_region_contains,
    limit_region_contains,
    surface_anticomm,
    surface_jpow,
)
from .linalg import (
    HermObservable,
    Spectrum,
    eig_hermitian,
    expectation,
    make_hermitian,
)
from .numrange import (
    Boundary,
    Direction,
    Hyperrect,
    SupportFace,
    boundary2d,
    boundary3d,
    convex_hull,
    diag_directions,
    direction,
    direction2,
    direction3,
    face,
    hyperrect,
    membership,
    support,
    sweep_directions,
)
from .spinops import (
    HalfInt,
    ObservableVec,
    angular_momentum,
    anticomm_vec,
    coherent_ket,
    j_triple,
    jsq_pair,
    ladder_combo,
    power_vec,
    rotate_frame,
    scale_uniform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
