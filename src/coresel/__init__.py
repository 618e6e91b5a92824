"""Graph-guided adaptive coreset selection with a desk-scale training simulator."""

from .dynamics import (
    AnchorSets,
    UpdatePlan,
    affinity,
    check_and_update,
    discrepancy_check,
    embedding_shift,
    propagate_embeddings,
    propagate_scores,
    qualifying_anchor_sets,
    select_recal_set,
    uniqueness,
    update_priority,
)
from .errors import (
    ConfigError,
    CoreselError,
    DataError,
    DomainError,
    FormatError,
    OrderingError,
    ResourceError,
)
from .knn_graph import (
    LshIndex,
    MutualKnnGraph,
    build_graph,
    build_lsh_index,
    dump_graph,
    load_graph,
    repair_graph,
)
from .orchestrator import RunReport, run
from .scoring import (
    WarpParams,
    derive_warp_params,
    selection_scores,
    warp_mode,
    warped_scores,
)
from .selector import (
    CoresetSelection,
    coreset_objective,
    representation_score,
    select_coreset,
)
from .simulator import SimState, make_dataset
from .store import (
    EmbeddingTable,
    ScoreLedger,
    SelectionConfig,
    ingest_embeddings,
    load_score_stream,
    min_max_normalize,
    write_embeddings,
    write_score_stream,
)

__version__ = "0.1.0"
