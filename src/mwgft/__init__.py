"""Windowed and multi-window graph Fourier transforms.

Build a graph, eigendecompose its Laplacian, design a family of spectral
windows, analyze a signal into vertex-frequency coefficients, and
reconstruct it exactly whenever the per-vertex denominator stays away from
zero::

    import mwgft

    g = mwgft.path_graph(50)
    basis = mwgft.eigendecompose(mwgft.laplacian(g, mwgft.LaplacianKind.SYMMETRIC_NORMALIZED),
                                 mwgft.LaplacianKind.SYMMETRIC_NORMALIZED)
    windows = mwgft.WindowFamily.with_normalized_synthesis(
        mwgft.shifted_family(mwgft.rbf_prototype(basis.lambda_max, 0.7),
                             mwgft.uniform_shifts(basis.lambda_max, 3), basis))
    f = mwgft.impulse(50, 25)
    coeffs = mwgft.mwgft_analyze(basis, windows, f)
    f_rec = mwgft.mwgft_synthesize(basis, windows, coeffs)
"""

from .errors import (
    DegenerateCoverage,
    DegenerateDenominator,
    DimensionMismatch,
    Disconnected,
    DuplicateEdgeConflict,
    EigSolverFailure,
    FingerprintMismatch,
    IndexOutOfRange,
    InvalidParameter,
    InvalidSize,
    MultipleZeroEigenvalues,
    MwgftError,
    NegativeWeight,
    NotAFrame,
    ParseError,
    SelfLoop,
    ZeroDegree,
)
from .graph import (
    Graph,
    LaplacianKind,
    build_graph,
    laplacian,
    load_graph,
    path_graph,
    random_connected_graph,
    save_graph,
)
from .operators import (
    apply_filter,
    atom,
    convolve,
    modulate,
    translate,
    translate_all,
    translate_norms_sq,
    translation_inner_product,
    translation_inner_products,
)
from .signals import (
    ChirpSpec,
    HeatSpec,
    ImpulseSpec,
    RandomSpec,
    SpectralProfileSpec,
    build_signal,
    chirp_signal,
    heat_signal,
    impulse,
    load_signal_csv,
    load_spectrum_csv,
    random_signal,
    save_signal_csv,
    save_spectrum_csv,
    spectral_signal,
)
from .spectral import (
    SpectralBasis,
    SpectralMagnitudes,
    eigendecompose,
    gft,
    igft,
    save_eigenvalues_csv,
    save_vectors_csv,
    spectral_magnitudes,
)
from .transform import (
    FrameBounds,
    Spectrogram,
    WgftCoefficients,
    frame_bounds,
    load_coefficients,
    mwgft_analyze,
    mwgft_synthesize,
    reconstruct_two_window,
    save_coefficients,
    save_spectrogram_csv,
    save_spectrogram_pgm,
    spectrogram,
    wgft,
)
from .windows import (
    ConditionReport,
    SpectralWindow,
    SufficientConditions,
    WindowFamily,
    check_nondegeneracy,
    default_nondegeneracy_tolerance,
    denominator,
    energy_response,
    format_condition_report,
    load_family_csv,
    rbf_prototype,
    save_condition_report_csv,
    save_family_csv,
    shifted_family,
    sufficient_conditions,
    synthesis_family,
    uniform_shifts,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    list_presets,
    load_config,
    load_preset,
    run_experiment,
)

__version__ = "0.1.0"
