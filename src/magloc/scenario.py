"""Scenario configuration: world, rig, distortions, noise, trajectory.

A scenario file is a single JSON document; every command materializes the
resolved configuration it ran with into its output directory so runs are
self-describing.  Its `solver` section is the only source of the CLI's
solver settings.  A scenario is checked whole when it is loaded
(`ScenarioConfig.from_dict`): every number through `errors.check_number`,
every list for its length, and the rules between sections, so a bad value
exits 2 naming its key before any command writes a file.  Seeds feed
numpy's PCG64 generator through SeedSequence children (0: world sampling,
1: distortions, 2: dataset noise, 3: fingerprint noise), which keeps
datasets reproducible across platforms.
"""

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, check_number
from .geom import exp_so3
from .gpr import PLANE_TOL_M, KernelParams
from .magmap import DipoleSource, FieldModel, distance_to_grid_rect
from .sim import (CalibrationParams, NoiseConfig, SensorExtrinsics,
                  default_rig, generate_trajectory, sample_distortions)
from .estimator import SolverConfig

def _check_vector(name: str, value, n: int) -> None:
    """A list of exactly n finite numbers."""
    if not (isinstance(value, (list, tuple)) and len(value) == n):
        raise ConfigurationError(
            f"{name} must be a list of {n} numbers, got {value!r}")
    for k, v in enumerate(value):
        check_number(f"{name}[{k}]", v)


def _check_entries(name: str, entries, keys: tuple) -> None:
    """A list of objects, each holding a 3-vector under every key."""
    if not isinstance(entries, list):
        raise ConfigurationError(f"{name} must be a list, got {entries!r}")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigurationError(
                f"{name}[{k}] must be an object, got {entry!r}")
        for key in keys:
            _check_vector(f"{name}[{k}].{key}", entry.get(key), 3)


@dataclass
class WorldConfig:
    earth_field: list  # uT
    dipoles: list  # [{"position": [..], "moment": [..]}]
    origin: list
    resolution: float
    nx: int
    ny: int
    plane_height: float = 0.0

    def __post_init__(self):
        _check_vector("world.earth_field", self.earth_field, 3)
        norm = float(np.linalg.norm(self.earth_field))
        if not 10.0 <= norm <= 100.0:
            raise ConfigurationError(f"world.earth_field norm {norm:.1f} uT is outside "
                                     "the plausible 10-100 range")
        _check_entries("world.dipoles", self.dipoles, ("position", "moment"))
        _check_vector("world.origin", self.origin, 2)
        check_number("world.resolution", self.resolution, above=0)
        check_number("world.nx", self.nx, integer=True, at_least=2)
        check_number("world.ny", self.ny, integer=True, at_least=2)
        check_number("world.plane_height", self.plane_height)
        for k, d in enumerate(self.dipoles):  # rasterize's rule, before any write
            p = d["position"]
            if distance_to_grid_rect(p, self.origin, self.resolution, self.nx,
                                     self.ny, self.plane_height) < self.resolution:
                raise ConfigurationError(f"world.dipoles[{k}].position must keep one "
                                         f"cell from the mapped region, got {p!r}")

    def extent(self) -> tuple:
        """(xmin, xmax, ymin, ymax) of the mapped rectangle."""
        return (self.origin[0], self.origin[0] + (self.nx - 1) * self.resolution,
                self.origin[1], self.origin[1] + (self.ny - 1) * self.resolution)


@dataclass
class TrajectoryConfig:
    waypoints: list  # [[x, y], ...]
    speed: float = 0.5
    frame_rate: float = 10.0
    height: float = 0.0

    def __post_init__(self):
        if not isinstance(self.waypoints, list):
            raise ConfigurationError(
                f"trajectory.waypoints must be a list, got {self.waypoints!r}")
        for k, w in enumerate(self.waypoints):
            _check_vector(f"trajectory.waypoints[{k}]", w, 2)
        check_number("trajectory.speed", self.speed, above=0)
        check_number("trajectory.frame_rate", self.frame_rate, above=0)
        check_number("trajectory.height", self.height)


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
        check_number("fingerprints.line_spacing", self.line_spacing, above=0)
        check_number("fingerprints.sample_spacing", self.sample_spacing, above=0)
        check_number("fingerprints.margin", self.margin)
        check_number("fingerprints.noise_sigma", self.noise_sigma, at_least=0)


@dataclass
class DistortionConfig:
    mode: str = "random"  # "random" | "identity" | "explicit"
    diag_range: list = field(default_factory=lambda: [0.9, 1.1])
    offdiag_range: list = field(default_factory=lambda: [-0.05, 0.05])
    bias_range: list = field(default_factory=lambda: [-20.0, 20.0])
    explicit: list | None = None  # [[12 floats] per sensor]

    def __post_init__(self):
        if self.mode not in ("random", "identity", "explicit"):
            raise ConfigurationError(
                "distortion.mode must be 'random', 'identity' or 'explicit', "
                f"got {self.mode!r}")
        for key in ("diag_range", "offdiag_range", "bias_range"):
            value = getattr(self, key)
            _check_vector(f"distortion.{key}", value, 2)
            if not value[0] <= value[1]:
                raise ConfigurationError(
                    f"distortion.{key} must be an ordered [low, high] pair, "
                    f"got {value!r}")
        if self.explicit is None:
            return
        if not isinstance(self.explicit, list):
            raise ConfigurationError(
                f"distortion.explicit must be a list or null, got {self.explicit!r}")
        for k, theta in enumerate(self.explicit):
            _check_vector(f"distortion.explicit[{k}]", theta, 12)


def _section(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigurationError(f"{key} must be an object, got {value!r}")
    return value


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

    def check(self) -> None:
        """The seed, the sections held as plain data and the rules between
        sections; the dataclass sections check their values when built."""
        # int() would turn 7.9, true or "7" into a world not asked for.
        check_number("seed", self.seed, integer=True, at_least=0)
        noise_config(self)
        kernel_params(self)
        solver_config(self)
        sensors = rig(self)
        n_sensors = len(sensors)
        n_thetas = len(self.distortion.explicit or ())
        if self.distortion.mode == "explicit" and n_thetas != n_sensors:
            raise ConfigurationError(
                f"distortion.explicit must hold one theta per rig sensor "
                f"({n_sensors}), got {n_thetas}")
        t = self.trajectory
        # The map is one plane and its lookup ignores z, so a sensor off
        # the plane would read a field the map does not hold.
        plane = self.world.plane_height
        for k, sensor in enumerate(sensors):
            height = t.height + sensor.translation[2]
            if abs(height - plane) > PLANE_TOL_M:
                key = ("trajectory.height" if self.rig is None else
                       f"trajectory.height + rig[{k}].translation[2]")
                raise ConfigurationError(
                    f"{key} must equal world.plane_height {plane!r} within "
                    f"{PLANE_TOL_M} m, got {float(height)!r}")
        xmin, xmax, ymin, ymax = self.world.extent()
        for k, (x, y) in enumerate(t.waypoints):
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                raise ConfigurationError(
                    f"trajectory.waypoints[{k}] {[x, y]} is off the map")
        # At least two waypoints, none repeating the one before.
        generate_trajectory(t.waypoints, t.speed, t.frame_rate, t.height)
        coverage_waypoints(self)  # the margin must leave an interior
        true_calibrations(self)  # a singular explicit C, or one drawn from the ranges

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigurationError(f"a scenario must be an object, got {data!r}")
        try:
            unknown = sorted(set(data) - {f.name for f in fields(ScenarioConfig)})
            if unknown:
                raise ConfigurationError(f"unknown scenario keys {unknown}")
            config = ScenarioConfig(
                seed=data["seed"],
                world=WorldConfig(**data["world"]),
                trajectory=TrajectoryConfig(**data["trajectory"]),
                fingerprints=FingerprintConfig(**_section(data, "fingerprints")),
                distortion=DistortionConfig(**_section(data, "distortion")),
                noise=dict(_section(data, "noise")),
                gpr=dict(_section(data, "gpr")),
                solver=dict(_section(data, "solver")),
                rig=data.get("rig"),
            )
            config.check()
            return config
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"bad scenario config: {exc}") from exc


def config_json(config: ScenarioConfig) -> str:
    """The text save_config writes."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w") as f:
        f.write(config_json(config))


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
    dipoles = [DipoleSource(np.asarray(d["position"], float),
                            np.asarray(d["moment"], float))
               for d in config.world.dipoles]
    return FieldModel(earth, dipoles)


def grid_spec(config: ScenarioConfig) -> dict:
    w = config.world
    return {"origin": np.asarray(w.origin, float), "resolution": float(w.resolution),
            "nx": int(w.nx), "ny": int(w.ny), "plane_height": float(w.plane_height)}


def rig(config: ScenarioConfig) -> list:
    if config.rig is None:
        return default_rig()
    _check_entries("rig", config.rig, ("rotvec", "translation"))
    if not config.rig:
        raise ConfigurationError("rig must hold at least one sensor, got []")
    return [SensorExtrinsics(exp_so3(np.asarray(s["rotvec"], float)),
                             np.asarray(s["translation"], float))
            for s in config.rig]


def noise_config(config: ScenarioConfig) -> NoiseConfig:
    return NoiseConfig(**config.noise)


def kernel_params(config: ScenarioConfig) -> KernelParams:
    return KernelParams(**config.gpr)


def solver_config(config: ScenarioConfig, **overrides) -> SolverConfig:
    """The scenario's solver section, with meas_sigma defaulting to the
    noise section's; overrides let code vary a setting over one scenario."""
    params = dict(config.solver)
    params.update(overrides)
    params.setdefault("meas_sigma", config.noise.get("meas_sigma", 0.2))
    return SolverConfig(**params)


def true_calibrations(config: ScenarioConfig) -> list:
    """Resolve the per-sensor truth distortions (seeded when random)."""
    n = len(rig(config))
    d = config.distortion
    if d.mode == "identity":
        return [CalibrationParams.identity() for _ in range(n)]
    if d.mode == "explicit":
        return [CalibrationParams.from_theta(np.asarray(t, float))
                for t in d.explicit]
    rng = seed_children(config.seed)[1]
    return sample_distortions(n, rng, tuple(d.diag_range),
                              tuple(d.offdiag_range), tuple(d.bias_range))


def coverage_waypoints(config: ScenarioConfig) -> list:
    """Lawnmower coverage polyline for fingerprint collection."""
    fp = config.fingerprints
    fp.check()  # a non-positive line_spacing would never reach ymax
    xmin, xmax, ymin, ymax = config.world.extent()
    xmin, xmax = xmin + fp.margin, xmax - fp.margin
    ymin, ymax = ymin + fp.margin, ymax - fp.margin
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
    positions, _ = generate_trajectory(coverage_waypoints(config),
                                       config.fingerprints.sample_spacing, 1.0,
                                       config.world.plane_height)
    return positions


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
