"""dualcal: joint coordinate/kinematic calibration for dual-arm robots.

Estimates the three static coordinate transforms (flange-to-sensor X,
base-to-base Y, flange-to-tool Z) together with the per-joint kinematic
twists of both arms from closed-loop pose measurements, with a
certifiably correct SDP initialization for the coordinates.
"""

from .chain import (DualArmSystem, Measurements, identifiability_report,
                    predict_B, residual, stack)
from .evaluate import (ball_consistency, evaluate_dataset, evaluate_samples,
                       min_enclosing_ball, sphere_fit)
from .kinematics import RobotModel, default_arm, forward_kinematics, perturb_model
from .liegroup import (adjoint, exp_se3, hat, joint_jacobian, left_jacobian,
                       log_se3, vee)
from .sdp_init import (build_constraints, build_problem, certify, extract,
                       initialize, lift, solve_sdp)
from .simulate import (default_system, generate_dataset, kin_level,
                       load_dataset, noise_level, perturb_level,
                       sample_configurations, save_dataset, synthesize)
from .solver import SolverConfig, SolveTrace, calibrate, solve, step

__version__ = "0.1.0"
