"""Hermitian curvature flow of left-invariant metrics on the complex
2-dimensional model geometries: curvature tensors, flow integration,
finite-time-singularity detection and long-time-limit classification."""

from .algebra import StructureConstants, from_brackets
from .analysis import (LimitDescriptor, classify_gh_limit, linear_growth_rate,
                       verify_decay_bound)
from .catalog import GeometryDescriptor, entry, list_geometries, catalog_json
from .curvature import CurvatureBundle, curvature_bundle
from .geometry import Geometry, GeometryParams, InadmissibleParamsError
from .integrate import FlowConfig, FlowOutcome, Trajectory, integrate
from .metric import DegenerateMetricError, HermitianMetric

__version__ = "0.1.0"

__all__ = [
    "CurvatureBundle", "DegenerateMetricError", "FlowConfig", "FlowOutcome",
    "Geometry", "GeometryDescriptor", "GeometryParams", "HermitianMetric",
    "InadmissibleParamsError", "LimitDescriptor", "StructureConstants",
    "Trajectory", "catalog_json", "classify_gh_limit", "curvature_bundle",
    "entry", "from_brackets", "integrate", "linear_growth_rate",
    "list_geometries", "verify_decay_bound",
]
