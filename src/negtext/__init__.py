"""Test-time OOD detection with adaptive negative textual spaces.

Scores image embeddings against ID labels plus negative text spaces that
are regenerated online from a streaming history of test images: mined
negative images yield descriptive sentences, frequently predicted ID
classes yield visually similar lookalike labels, and an adaptive weight
fuses the two scores.
"""
__version__ = "0.1.0"

from .embeddings import (  # noqa: F401
    EmbeddingMatrix,
    LabelSpace,
    NegativeSpace,
    TestBatch,
    load_embeddings,
    save_embeddings,
)
from .errors import NegtextError  # noqa: F401
from .metrics import MetricReport, auroc, compute_report, fpr95  # noqa: F401
from .mining import HistoryCache, MiningConfig  # noqa: F401
from .pipeline import (  # noqa: F401
    PipelineConfig,
    StreamState,
    init_stream,
    load_checkpoint,
    process_batch,
    run_stream,
    save_checkpoint,
)
from .scoring import ScoreConfig, ScoreRecord  # noqa: F401
from .spaces import CorpusCandidates, select_initial_nls  # noqa: F401
