"""Taxonomy-keyed concept dictionary engine for Slovak.

Concepts are identified by lemma plus taxonomy path, linked by typed
relations and inflected word forms.  On top of the indexed store sit three
tools: text-to-concept extraction, semantic-graph queries and a
proportional-analogy solver, exposed as a library, a CLI and an HTTP API.
"""

from .core import (
    Concept,
    ConceptKey,
    ConceptKind,
    Gender,
    KonseptaError,
    PartOfSpeech,
    RelationEdge,
    RelationRegistry,
    RelationType,
    Taxonomy,
    WordForm,
    parse_concept_key,
)
from .extract import Annotation, DisambiguationWeights, Token, disambiguate, extract, tokenize
from .ingest import DatasetBundle, IngestReport, export_dataset, fixture_dir, load_dataset
from .semantics import (
    NoPathError,
    SemanticNetwork,
    path_relations,
    semantic_network,
    solve_analogy,
    transitive_closure,
)
from .store import LookupFilter, Store, StoreState, StoreStats

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "Concept",
    "ConceptKey",
    "ConceptKind",
    "DatasetBundle",
    "DisambiguationWeights",
    "Gender",
    "IngestReport",
    "KonseptaError",
    "LookupFilter",
    "NoPathError",
    "PartOfSpeech",
    "RelationEdge",
    "RelationRegistry",
    "RelationType",
    "SemanticNetwork",
    "Store",
    "StoreState",
    "StoreStats",
    "Taxonomy",
    "Token",
    "WordForm",
    "disambiguate",
    "export_dataset",
    "extract",
    "fixture_dir",
    "load_dataset",
    "parse_concept_key",
    "path_relations",
    "semantic_network",
    "solve_analogy",
    "tokenize",
    "transitive_closure",
]
