"""dualcal: joint coordinate/kinematic calibration for dual-arm robots.

Estimates the three static coordinate transforms (flange-to-sensor X,
base-to-base Y, flange-to-tool Z) together with the per-joint kinematic
twists of both arms from closed-loop pose measurements, with a
certifiably correct SDP initialization for the coordinates.
"""

from .chain import DualArmSystem, Measurements, identifiability_report
from .evaluate import ball_consistency, evaluate_samples
from .kinematics import RobotModel
from .sdp_init import initialize
from .simulate import generate_dataset
from .solver import calibrate

__version__ = "0.1.0"
