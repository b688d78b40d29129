"""Shot-noise simulation and verification toolkit for layered stable
Levy processes."""

from ._special import EULER_GAMMA, isotropic_cf_constant, stable_cf_constant, zeta
from .girsanov import (DensityRatio, drift_compatibility, nu_gap,
                       required_drift_difference, rn_diagnostics,
                       singularity_witness, u_canonical, u_from_jumps,
                       u_levy_tail, u_series)
from .limits import (LimitSpec, gaussian_covariance, limit_target_and_samples,
                     long_time_constants, rescale_terminal,
                     short_time_constants)
from .mc import (auto_r_cut, layered_terminals, layered_terminals_gaussian,
                 mixed_terminals, rejection_terminals, run_paths,
                 stable_terminals, stable_terminals_gaussian, substream,
                 terminals, worker_count)
from .qfunc import (LayeredQ, QuadratureError, blend_q, canonical_magnitudes,
                    levy_tail_mass, parse_q_spec)
from .series import (MixDistribution, SamplePath, SeriesLaw, ShotNoiseDraw,
                     draw_shot_noise, layered_law, layered_path_canonical,
                     layered_path_general, layered_path_rejection, make_grid,
                     mixed_law, mixed_path, rejection_law,
                     stable_drift_constant, stable_law, stable_path)
from .spherical import SphericalMeasure, parse_spherical_spec
from .stats import (GaussianCF, IsotropicStableCF, LayeredQuadratureCF,
                    StableCF, cf_distance, default_y_grid, ecf,
                    hill_ci, hill_tail_index, p_variation)

__version__ = "0.1.0"
