"""Secured-position backtesting of VAR and ES with traffic-light zones."""

from .backtest import (
    ES_THRESHOLDS,
    VAR_THRESHOLDS,
    Z_THRESHOLDS,
    ZONES,
    BacktestResult,
    StatResult,
    ZoneThresholds,
    classify,
    dual_g,
    dual_t,
    g_stat,
    t_stat,
    z_stat,
)
from .dist import (
    PRESETS,
    STREAM_CONTRACT,
    DistSpec,
    Normal,
    RngStream,
    SkewT,
    StudentT,
    dist_from_json,
    dist_to_json,
    preset,
)
from .estimators import (
    SampleMoments,
    es_empirical,
    es_normal,
    moments,
    true_risk,
    var_empirical,
    var_normal,
)
from .harness import (
    ConfusionMatrix,
    DataError,
    ReturnPanel,
    RollingConfig,
    Sample,
    compare_backtest,
    confusion,
    filter_dates,
    heatmap_table,
    load_returns,
    rolling_backtest,
    run_batch,
    run_compare_batch,
    split_samples,
    write_heatmap_csv,
)
from .parallel import parallel_map
from .secured import SecuredSample, build_normalized, build_secured
from .simulation import (
    FitError,
    GarchSpec,
    McConfig,
    NullDistribution,
    fit_and_simulate,
    fit_iid,
    garch_fit,
    garch_from_json,
    garch_simulate,
    garch_to_json,
    mc_null,
)

__version__ = "0.1.0"
