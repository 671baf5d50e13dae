"""Enumeration and verification of toroidal 2-in/2-out lace ground embeddings."""

from .geometry import Arc, TorusDims, arcs_cross, direction_slot, step_length, wrap
from .paths import LacePath, count_lace_paths, generate_lace_paths
from .embedding import (
    GroundEmbedding,
    GroundFileError,
    add_path,
    deserialize,
    new_embedding,
    serialize,
)
from .canonical import (
    canonical_id,
    canonical_representative,
    identifier,
    identifier_text,
    transform,
    translate,
)
from .validator import (
    CircuitPartition,
    PropertyReport,
    WindingVector,
    check_connected,
    check_embedded,
    check_no_contractible_directed_cycles,
    check_thread_conservation,
    check_two_regular,
    full_report,
    partition_circuits,
)
from .braid import BraidWord, is_alternating, to_braid_word
from .search import SearchConfig, SearchResult, count_table, enumerate_grounds

__version__ = "0.1.0"
