"""Online estimation of drifting, concept-structured student proficiency.

Probit-link item response model with time-decaying evidence, a prerequisite-
graph Gaussian prior over per-concept proficiencies, MAP inference, item
calibration, a prequential evaluation harness with baselines and metrics, and
a seeded synthetic-data generator.
"""

from .calibration import CalibrationConfig, ItemBank, calibrate, recovery_correlations
from .concept_graph import (
    ConceptGraph,
    GraphError,
    StructuredPrior,
    build_prior,
    chain_graph,
    load_graph,
    parse_graph,
    save_graph,
)
from .dataio import (
    ByStudentFraction,
    ByTimeCutoff,
    DataError,
    Dataset,
    InteractionRecord,
    load_interactions,
    preprocess,
    split_dataset,
    write_interactions,
)
from .evaluation import (
    EvaluationReport,
    ModelVariant,
    bucket_by_student_percent_correct,
    run_online_evaluation,
    summary_table,
    write_bucket_tsv,
    write_report_json,
)
from .inference import (
    ProficiencyEstimate,
    SolverConfig,
    estimate_history,
    map_estimate_vector,
    predict_next,
)
from .irt_core import (
    ItemParams,
    ResponseEvent,
    TemporalConfig,
    gaussian_probit_integral,
    probit,
)
from .simulate import (
    ItemBankSpec,
    SimulationScenario,
    empirical_step_variance,
    generate,
    write_truth,
)

__version__ = "0.1.0"
