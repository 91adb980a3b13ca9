"""Per-figure/table experiment runners, indexed by ``EXPERIMENTS``.

``repro list-experiments`` prints the registry's ids and descriptions.

Each module regenerates one paper artefact:

======================  ===========================================
FIG1                    ``fig1_bound_sweep.run_fig1``
FIG2                    ``fig2_activation_distribution.run_fig2``
FIG3                    ``fig3_activation_shapes.run_fig3``
FIG5                    ``fig5_accuracy_distribution.run_fig5``
FIG6                    ``fig6_average_accuracy.run_fig6``
TAB1                    ``table1_overhead.run_table1``
§VI-C1                  ``posttraining_overhead.run_posttraining_overhead``
ABL-G/K/Z/B             ``ablations.run_*``
EXT-A/E/F/L/M, ABL-H/W  ``extensions.run_*`` (beyond-paper experiments)
======================  ===========================================

Each id has one definition.  A runner takes only the preset and,
optionally, the prepared context it measures (``contexts`` for the
runners that loop over panels); every grid, rate index and method list
is a module constant, set to what ``benchmarks/outputs/<id>.txt`` was
generated with.  ``repro experiment --id <id> --preset quick`` prints
that file.
"""

from repro.eval.experiments.ablations import (
    AblationResult,
    run_bit_position_ablation,
    run_granularity_ablation,
    run_slope_ablation,
    run_zeta_ablation,
)
from repro.eval.experiments.cache import StateCache, default_cache_dir
from repro.eval.experiments.context import DATASETS, ExperimentContext, prepare_context
from repro.eval.experiments.extensions import (
    run_activation_fault_comparison,
    run_ecc_comparison,
    run_fault_model_comparison,
    run_format_ablation,
    run_hard_deploy_ablation,
    run_layer_vulnerability,
    run_mobilenet_panel,
)
from repro.eval.experiments.fig1_bound_sweep import Fig1Result, run_fig1
from repro.eval.experiments.fig2_activation_distribution import Fig2Result, run_fig2
from repro.eval.experiments.fig3_activation_shapes import Fig3Result, run_fig3
from repro.eval.experiments.fig5_accuracy_distribution import Fig5Result, run_fig5
from repro.eval.experiments.fig6_average_accuracy import Fig6Result, run_fig6
from repro.eval.experiments.posttraining_overhead import (
    PostTrainingOverheadResult,
    run_posttraining_overhead,
)
from repro.eval.experiments.presets import FULL, PRESETS, Preset, QUICK, SMOKE, get_preset
from repro.eval.experiments.runner import MethodSweep, run_method_sweep
from repro.eval.experiments.table1_overhead import Table1Result, run_table1

EXPERIMENTS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "table1": run_table1,
    "posttraining": run_posttraining_overhead,
    "ablation-granularity": run_granularity_ablation,
    "ablation-slope": run_slope_ablation,
    "ablation-zeta": run_zeta_ablation,
    "ablation-bits": run_bit_position_ablation,
    "ablation-format": run_format_ablation,
    "ablation-harddeploy": run_hard_deploy_ablation,
    "ext-activation": run_activation_fault_comparison,
    "ext-ecc": run_ecc_comparison,
    "ext-faultmodels": run_fault_model_comparison,
    "ext-layers": run_layer_vulnerability,
    "ext-mobilenet": run_mobilenet_panel,
}
"""Registry of all experiment entry points (``repro experiment --id``)."""

__all__ = [
    "DATASETS",
    "EXPERIMENTS",
    "FULL",
    "PRESETS",
    "QUICK",
    "SMOKE",
    "AblationResult",
    "ExperimentContext",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig5Result",
    "Fig6Result",
    "MethodSweep",
    "PostTrainingOverheadResult",
    "Preset",
    "StateCache",
    "Table1Result",
    "default_cache_dir",
    "get_preset",
    "prepare_context",
    "run_activation_fault_comparison",
    "run_bit_position_ablation",
    "run_ecc_comparison",
    "run_fault_model_comparison",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig5",
    "run_fig6",
    "run_format_ablation",
    "run_granularity_ablation",
    "run_hard_deploy_ablation",
    "run_layer_vulnerability",
    "run_method_sweep",
    "run_mobilenet_panel",
    "run_posttraining_overhead",
    "run_slope_ablation",
    "run_table1",
    "run_zeta_ablation",
]
