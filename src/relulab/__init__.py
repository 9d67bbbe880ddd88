"""relulab: a measurement lab for two-layer ReLU regression networks.

Modules cover numerical kernels, the network and its reduced form, the
data-dependent weight function, sharpness and flatness certificates, plain
gradient-descent training, shattering diagnostics, hard function families,
predicted error-rate exponents, and the experiment harness with its CLI.
"""

__version__ = "0.1.0"

from relulab.harness import (
    RunRecord,
    ShatterConfig,
    ShatterResult,
    SweepConfig,
    SweepResult,
    make_regression_dataset,
    run_mse_sweep,
    run_shattering_experiment,
    run_single_cell,
)
from relulab.hardfn import (
    CapPacking,
    HardFamily,
    SignFamily,
    atom_l2_norm,
    build_hard_family,
    pack_caps,
    varshamov_gilbert,
)
from relulab.nets import (
    Dataset,
    ReducedForm,
    TwoLayerNet,
    forward,
    kaiming_init,
    load_checkpoint,
    loss,
    loss_gradient,
    save_checkpoint,
    to_reduced_form,
)
from relulab.numerics import (
    EigenEstimate,
    derive_rng,
    loglog_slope,
    make_rng,
    sample_uniform_ball,
    top_eigenpair,
)
from relulab.rates import compare_slopes, exponent_table, predicted_exponent
# The function ``sharpness`` is not re-exported here: binding it on the
# package would hide the submodule ``relulab.sharpness``.  Import it from
# the submodule.
from relulab.sharpness import (
    ActivationBoundaryWarning,
    RegularityCertificate,
    gauss_newton_sharpness,
    hessian_vector_product,
    regularity_certificate,
    term_a_lower_bound,
)
from relulab.shattering import (
    NeuronStats,
    ShatteringReport,
    neuron_stats,
    shattering_report,
)
from relulab.training import (
    TrainConfig,
    TrainLog,
    TrainingDivergedError,
    train,
)
from relulab.weights import (
    g_analytic,
    g_empirical,
    g_simplified,
    tilde_g_analytic,
    tilde_g_empirical,
)
