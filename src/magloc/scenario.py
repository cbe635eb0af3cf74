"""Scenario configuration: world, rig, distortions, noise, trajectory.

A scenario file is a single JSON document; every command materializes the
resolved configuration it ran with into its output directory so runs are
self-describing.  Seeds feed numpy's PCG64 generator through
SeedSequence children (0: world sampling, 1: distortions, 2: dataset
noise, 3: fingerprint noise), which keeps datasets reproducible across
platforms.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigurationError
from .geom import exp_so3
from .gpr import KernelParams
from .magmap import DipoleSource, FieldModel
from .sim import (CalibrationParams, NoiseConfig, SensorExtrinsics,
                  default_rig, generate_trajectory, sample_distortions)
from .estimator import SolverConfig


@dataclass
class WorldConfig:
    earth_field: list  # uT
    dipoles: list  # [{"position": [..], "moment": [..]}]
    origin: list
    resolution: float
    nx: int
    ny: int
    plane_height: float = 0.0


@dataclass
class TrajectoryConfig:
    waypoints: list  # [[x, y], ...]
    speed: float = 0.5
    frame_rate: float = 10.0
    height: float = 0.0


@dataclass
class FingerprintConfig:
    line_spacing: float = 0.5
    sample_spacing: float = 0.25
    margin: float = 1.0
    noise_sigma: float = 0.2

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Both spacings must be positive: the coverage path steps by
        line_spacing and the samples by sample_spacing."""
        for key in ("line_spacing", "sample_spacing"):
            value = getattr(self, key)
            if not value > 0.0:
                raise ConfigurationError(
                    f"fingerprints.{key} must be positive, got {value!r}")


@dataclass
class DistortionConfig:
    mode: str = "random"  # "random" | "identity" | "explicit"
    diag_range: list = field(default_factory=lambda: [0.9, 1.1])
    offdiag_range: list = field(default_factory=lambda: [-0.05, 0.05])
    bias_range: list = field(default_factory=lambda: [-20.0, 20.0])
    explicit: list | None = None  # [[12 floats] per sensor]


@dataclass
class ScenarioConfig:
    seed: int
    world: WorldConfig
    trajectory: TrajectoryConfig
    fingerprints: FingerprintConfig = field(default_factory=FingerprintConfig)
    distortion: DistortionConfig = field(default_factory=DistortionConfig)
    noise: dict = field(default_factory=lambda: {
        "meas_sigma": 0.2, "odom_trans_sigma": 0.01, "odom_rot_sigma": 0.005})
    gpr: dict = field(default_factory=lambda: {
        "lengthscale": 1.0, "signal_var": 25.0, "noise_var": 0.04})
    solver: dict = field(default_factory=dict)
    rig: list | None = None  # [{"rotvec": [..], "translation": [..]}]

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        try:
            return ScenarioConfig(
                seed=int(data["seed"]),
                world=WorldConfig(**data["world"]),
                trajectory=TrajectoryConfig(**data["trajectory"]),
                fingerprints=FingerprintConfig(**data.get("fingerprints", {})),
                distortion=DistortionConfig(**data.get("distortion", {})),
                noise=dict(data.get("noise", {})),
                gpr=dict(data.get("gpr", {})),
                solver=dict(data.get("solver", {})),
                rig=data.get("rig"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"bad scenario config: {exc}") from exc


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w") as f:
        json.dump(config.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read scenario config: {exc}") from exc
    return ScenarioConfig.from_dict(data)


def seed_children(seed: int, n: int = 4) -> list:
    return [np.random.Generator(np.random.PCG64(child))
            for child in np.random.SeedSequence(seed).spawn(n)]


def field_model(config: ScenarioConfig) -> FieldModel:
    earth = np.asarray(config.world.earth_field, dtype=float)
    norm = float(np.linalg.norm(earth))
    if not 10.0 <= norm <= 100.0:
        raise ConfigurationError(
            f"earth field norm {norm:.1f} uT outside the plausible 10-100 range")
    dipoles = [DipoleSource(np.asarray(d["position"], float),
                            np.asarray(d["moment"], float))
               for d in config.world.dipoles]
    return FieldModel(earth, dipoles)


def grid_spec(config: ScenarioConfig) -> dict:
    w = config.world
    spec = {"origin": np.asarray(w.origin, float), "resolution": float(w.resolution),
            "nx": int(w.nx), "ny": int(w.ny), "plane_height": float(w.plane_height)}
    if not (spec["resolution"] > 0.0
            and np.isfinite([*spec["origin"], spec["plane_height"]]).all()):
        raise ConfigurationError("world.resolution must be positive, origin and height finite")
    return spec


def rig(config: ScenarioConfig) -> list:
    if config.rig is None:
        return default_rig()
    return [SensorExtrinsics(exp_so3(np.asarray(s["rotvec"], float)),
                             np.asarray(s["translation"], float))
            for s in config.rig]


def noise_config(config: ScenarioConfig) -> NoiseConfig:
    try:
        return NoiseConfig(**config.noise)
    except TypeError as exc:
        raise ConfigurationError(f"bad noise section: {exc}") from exc


def kernel_params(config: ScenarioConfig) -> KernelParams:
    try:
        return KernelParams(**config.gpr)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad gpr section: {exc}") from exc


def solver_config(config: ScenarioConfig, **overrides) -> SolverConfig:
    params = dict(config.solver)
    params.update(overrides)
    params.setdefault("meas_sigma", config.noise.get("meas_sigma", 0.2))
    try:
        return SolverConfig(**params)
    except TypeError as exc:
        raise ConfigurationError(f"bad solver section: {exc}") from exc


def true_calibrations(config: ScenarioConfig) -> list:
    """Resolve the per-sensor truth distortions (seeded when random)."""
    n = len(rig(config))
    d = config.distortion
    if d.mode == "identity":
        return [CalibrationParams.identity() for _ in range(n)]
    if d.mode == "explicit":
        if d.explicit is None or len(d.explicit) != n:
            raise ConfigurationError("explicit distortion needs one theta per sensor")
        return [CalibrationParams.from_theta(np.asarray(t, float))
                for t in d.explicit]
    if d.mode == "random":
        rng = seed_children(config.seed)[1]
        return sample_distortions(n, rng, tuple(d.diag_range),
                                  tuple(d.offdiag_range), tuple(d.bias_range))
    raise ConfigurationError(f"unknown distortion mode {d.mode!r}")


def coverage_waypoints(config: ScenarioConfig) -> list:
    """Lawnmower coverage polyline for fingerprint collection."""
    w = config.world
    fp = config.fingerprints
    fp.check()  # a non-positive line_spacing would never reach ymax
    xmin = w.origin[0] + fp.margin
    xmax = w.origin[0] + (w.nx - 1) * w.resolution - fp.margin
    ymin = w.origin[1] + fp.margin
    ymax = w.origin[1] + (w.ny - 1) * w.resolution - fp.margin
    if not (xmin < xmax and ymin < ymax):
        raise ConfigurationError(
            f"fingerprints.margin {fp.margin!r} leaves no interior")
    points = []
    y = ymin
    left_to_right = True
    while y <= ymax + 1e-9:
        xa, xb = (xmin, xmax) if left_to_right else (xmax, xmin)
        points.append([xa, y])
        points.append([xb, y])
        left_to_right = not left_to_right
        y += fp.line_spacing
    return points


def fingerprint_positions(config: ScenarioConfig) -> np.ndarray:
    """(m, 3) samples every sample_spacing meters of arc length along the
    coverage path, at plane height."""
    poses = generate_trajectory(coverage_waypoints(config),
                                config.fingerprints.sample_spacing, 1.0,
                                config.world.plane_height)
    return np.stack([p.position for p in poses])


def reference_config(seed: int = 7) -> ScenarioConfig:
    """Desk-scale reference scenario: 15 m x 10 m world at 0.1 m resolution,
    six buried dipole anomalies, eight-sensor rig, 30 m lawnmower run."""
    rng = seed_children(seed)[0]
    dipoles = []
    for x in (2.5, 7.5, 12.5):
        for y in (2.8, 7.2):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            moment = direction * rng.uniform(80.0, 150.0)
            jitter = rng.uniform(-0.8, 0.8, size=2)
            dipoles.append({
                "position": [float(x + jitter[0]), float(y + jitter[1]), -1.5],
                "moment": [float(v) for v in moment],
            })
    world = WorldConfig(
        earth_field=[18.0, 4.0, -44.0],
        dipoles=dipoles,
        origin=[0.0, 0.0],
        resolution=0.1,
        nx=151,
        ny=101,
    )
    trajectory = TrajectoryConfig(
        waypoints=[[2.5, 2.5], [12.5, 2.5], [12.5, 5.0], [2.5, 5.0],
                   [2.5, 7.5], [7.5, 7.5]],
        speed=0.5,
        frame_rate=10.0,
    )
    return ScenarioConfig(seed=seed, world=world, trajectory=trajectory)
