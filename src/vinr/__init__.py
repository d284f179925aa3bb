"""Watertight vascular surface reconstruction from sparse point clouds using
neural signed-distance fields, with multi-channel nested fitting, smooth CSG
blending, isosurface extraction and quantitative evaluation."""

from .csg import BlendSpec, GridSource, ModelSource, Union, blend_grids, evaluate_near_level, evaluate_on_grid, smooth_union
from .extraction import check_watertight, marching_cubes
from .geometry import (
    DomainTransform,
    GeometryError,
    PointCloud,
    ScalarGrid,
    TriangleMesh,
    fit_transform,
    load_mesh,
    load_point_cloud,
    point_to_mesh_distance,
    read_grid,
    save_mesh,
    save_point_cloud,
    signed_distance_to_mesh,
    write_grid,
)
from .metrics import average_surface_distance, dice, nesting_violation, split_train_heldout
from .network import MlpArchitecture, MlpModel, forward, forward_with_input_grad, grad_of_loss, init_model, load_model, save_model
from .synthetic import Capsule, Sphere, Torus, bifurcation_fixture, icosphere, nested_wall_fixture, sample_analytic_surface
from .training import EikonalSampler, FitReport, TrainConfig, fit, fit_nested, loss_value

__version__ = "0.1.0"
