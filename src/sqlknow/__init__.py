"""sqlknow: knowledge-base construction and retrieval for text-to-SQL.

Builds a per-database knowledge base (annotated schema, value mappings, mined
domain terms) and a cross-corpus query-pattern graph, then serves them for
schema linking, prompt assembly, synthetic training-data generation, and
execution-based reward scoring. All LLM access goes through one pluggable
gateway with a deterministic mock, so every algorithm is verifiable offline.
"""

from .clustering import Clustering, kmeans, select_k
from .errors import (
    BudgetExceededError,
    ConfigError,
    GatewayError,
    IllegalTransition,
    InsufficientDataError,
    InvariantViolation,
    SqlKnowError,
    SqlParseError,
    UnresolvedIdentifierError,
    UnsupportedSqlError,
)
from .gateway import Gateway, GatewayConfig, GatewayRequest, MockRule, MockScript, RequestKind
from .knowledge import (
    Adjudication,
    DomainTerm,
    HumanVote,
    KnowledgeBase,
    LlmScore,
    Operator,
    QueryPatternRef,
    SchemaAnnotation,
    Source,
    State,
    ValidationStatus,
    ValueMapping,
    advance_validation,
    load_kb,
    store_kb,
)
from .linker import LinkResult, RelevanceScores, SlrReport, link, score_relevance, slr
from .pattern_graph import (
    GraphConfig,
    PatternGraph,
    build_graph,
    export_cypher,
    load_graph,
    representative_queries,
    retrieve_skeletons,
    store_graph,
)
from .prompting import PromptBundle, PromptConfig, assemble
from .reward import RewardOutcome, Tier, execute_sql, results_match, score, score_many
from .schema import (
    ColumnDef,
    DatabaseSchema,
    TableDef,
    load_schema,
    load_schema_any,
    schema_from_ddl,
    schema_from_sqlite,
    store_schema,
)
from .skeleton import SlotArity, SqlSkeleton, skeletonize
from .sql_refs import ConsistencyReport, ReferenceSet, check_schema_consistency, extract_references
from .synthesis import (
    Difficulty,
    SqlTemplate,
    SynthConfig,
    SynthPair,
    augment,
    build_template_pool,
    draw_count,
    generate_pairs,
    sample_templates,
)
from .term_miner import MineConfig, MiningResult, enrich_schema, mine_terms
from .textproc import (
    EmbedConfig,
    Embedding,
    HashingEmbedder,
    MaskedQuestion,
    SkeletonTfidf,
    TfIdfVector,
    cosine,
    embed,
    estimate_tokens,
    mask_question,
    tfidf_corpus,
)

__version__ = "0.1.0"
