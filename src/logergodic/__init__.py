"""Toolkit for log-ergodic price processes.

Simulates Wiener/GBM/Ito paths, transforms them into mean-reverting Z
processes, extracts recurrence and sojourn statistics for trade timing,
runs circle-rotation ergodicity diagnostics, and prices European calls
through three mutually cross-checking engines.
"""

from .ergodic import (
    DecomposedPath,
    DiagnosticCurve,
    EmoConfig,
    apply_emo,
    apply_iemo,
    construct_z_gbm,
    decompose,
    emo_decomposition,
    ergodicity_diagnostic,
)
from .pricing import (
    DerivedCoefficients,
    HeatProblem,
    PriceResult,
    PricingInputs,
    derive_coefficients,
    gamma_delta,
    heat_kernel,
    normal_cdf,
    price_ergodic_bs,
    price_rotation_call,
    price_via_pde,
    solve_heat_convolution,
    solve_heat_fd,
)
from .rotation import (
    GOLDEN_CONJUGATE,
    SQRT2,
    TabulatedPeriodic,
    ThetaPath,
    TrigPolynomial,
    birkhoff_average,
    equidistribution_test,
    kac_return_time,
    orbit,
    rotate,
    theta_moment_check,
    theta_process,
)
from .stochastic import (
    GbmParams,
    ItoParams,
    PathKind,
    SamplePath,
    TimeGrid,
    WienerPath,
    log_path,
    path_seed,
    simulate_gbm,
    simulate_ito,
    simulate_wiener,
)
from .trading import (
    BoundReport,
    Excursion,
    ExcursionSign,
    RecurrenceSet,
    SignalReport,
    SojournStats,
    TauPath,
    TradeLedger,
    build_excursions,
    build_ledger,
    detect_recurrences,
    generate_signals,
    oet_bound_report,
    simulate_recurrence_sde,
    sojourn_stats,
    subgrid_crossing_probability,
    trade_profit,
)

__version__ = "0.1.0"
