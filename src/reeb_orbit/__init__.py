"""Measured Reeb graph invariants of fields on symplectic surfaces.

Pipeline: load or build a PL surface, validate genericity, extract the
measured Reeb graph, compute boundary cycles and homology, solve or verify
circulation data, compare invariants, or realize an abstract graph back into
a surface.
"""

from .errors import (
    AmbiguousMatching,
    DataError,
    InfeasibleTarget,
    InsufficientSamples,
    InvalidGraph,
    LevelOnVertex,
    NonIntegerFormulaValue,
    NotSimpleMorse,
    ParseError,
    ReebOrbitError,
    TopologyError,
    UnclassifiableTransition,
    UnsupportedMap,
)
from .surface import (
    PLSurface,
    TopologySummary,
    ValidationReport,
    load_mesh,
    remap,
    topology_summary,
    validate_simple_morse,
)
from .reebgraph import MeasuredReebGraph, MeasureProfile, ReebEdge, ReebVertex
from .extraction import (
    AsymptoticFit,
    classify_level_transition,
    cyclic_order,
    extract_reeb,
    fit_vertex_asymptotics,
    saddle_model_residuals,
)
from .graph_core import (
    BoundaryCycle,
    HomologyDims,
    boundary_cycles,
    compatibility,
    genus,
    genus_formula_value,
    homology_dims,
    orbit_moduli_dimension,
    sigma,
)
from .realization import RealizationResult, realize, surface_of
from .circulation import (
    AugmentedCirculationGraph,
    CirculationFunction,
    DiscreteOneForm,
    XiClass,
    augment,
    check_circulation,
    circulation_from_form,
    dashed_cycle_basis,
    edge_moment,
    exact_form,
    lift_dashed_graph,
    solve_circulations,
    synthesize_form,
    total_moment,
    vorticity,
    xi_class,
)
from .equivalence import GraphIsomorphism, match_augmented, match_measured

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
