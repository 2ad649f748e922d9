"""Built-in scenario registry.

A scenario binds concrete fields/paths/surfaces/regions under a stable
public name, together with the analytically known exact value and the gap
tolerance the `verify` command gates on at the scenario's default
resolution. Every theorem kind and every worked example in the test suite
has at least one entry here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, UnknownScenario
from .fields import (
    ParametricRegion,
    ParametricSurface,
    Path,
    ScalarField,
    VectorField,
    swap_surface,
)
from .geometry import Box

TWO_PI = 2.0 * math.pi
THEOREM_KINDS = ("green", "gauss", "stokes")  # the kinds checked two-sided
# The fields each kind reads, besides ``field``.
_KIND_FIELDS = {
    "box": ("box",),
    "line": ("path",),
    "surface": ("surface",),
    "green": ("region",),
    "gauss": ("region",),
    "stokes": ("surface", "path"),
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """One verification target. Building one whose kind is unknown, or that
    lacks a field its kind reads, raises :class:`InvalidParameter`."""

    name: str
    kind: str  # box | line | surface | green | gauss | stokes
    exact: float
    note: str  # provenance of the exact value
    field: ScalarField | VectorField | None = None
    box: Box | None = None  # box kind; other kinds sum over their parameter domain
    path: Path | None = None
    surface: ParametricSurface | None = None
    region: ParametricRegion | None = None
    default_m: int = 64  # per-axis resolution used when none is given
    boundary_factor: int = 16  # boundary resolution per unit of interior m
    gap_tolerance: float = 1e-2  # verify gate at the default resolution
    tolerances: tuple[tuple[str, float], ...] = ()  # per-variant |error| bounds

    def __post_init__(self):
        """Refuse a kind outside ``_KIND_FIELDS`` and a missing field the
        kind reads, with :class:`InvalidParameter`."""
        if self.kind not in _KIND_FIELDS:
            raise InvalidParameter(
                f"scenario {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {tuple(_KIND_FIELDS)}"
            )
        for name in ("field", *_KIND_FIELDS[self.kind]):
            if getattr(self, name) is None:
                raise InvalidParameter(
                    f"scenario {self.name!r}: a {self.kind} scenario needs a {name}"
                )

    def boundary_m(self, m_axis: int) -> int:
        """Default boundary resolution derived from the interior one."""
        return self.boundary_factor * m_axis

    def tolerance_for(self, variant: str) -> float | None:
        return dict(self.tolerances).get(variant)


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add ``scenario`` to the registry under its name; a name already taken
    raises :class:`InvalidParameter`. Its kind and fields were checked when
    it was built."""
    if scenario.name in _REGISTRY:
        raise InvalidParameter(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenario(
            f"unknown scenario {name!r}; known: {', '.join(_REGISTRY)}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


# --- shared geometry ----------------------------------------------------------

UNIT_SQUARE = Box(((0.0, 1.0), (0.0, 1.0)))
UNIT_CUBE = Box(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
_POLAR_BOX = Box(((0.0, 1.0), (0.0, TWO_PI)))
_SPHERICAL_BOX = Box(((0.0, 1.0), (0.0, math.pi), (0.0, TWO_PI)))
_SPHERE_BOX = Box(((0.0, math.pi), (0.0, TWO_PI)))
_HEMISPHERE_BOX = Box(((0.0, math.pi / 2.0), (0.0, TWO_PI)))


def _ones(p):
    return np.ones(p.shape[:-1])


CIRCLE_2D = Path(
    domain=(0.0, TWO_PI),
    pos=lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1),
    vel=lambda t: np.stack([-np.sin(t), np.cos(t)], axis=-1),
    closed=True,
)

CIRCLE_3D = Path(
    domain=(0.0, TWO_PI),
    pos=lambda t: np.stack(
        [np.cos(t), np.sin(t), np.zeros(np.shape(t))], axis=-1
    ),
    vel=lambda t: np.stack(
        [-np.sin(t), np.cos(t), np.zeros(np.shape(t))], axis=-1
    ),
    closed=True,
)

SPHERE = ParametricSurface(
    domain=_SPHERE_BOX,
    pos=lambda p: np.stack(
        [
            np.sin(p[..., 0]) * np.cos(p[..., 1]),
            np.sin(p[..., 0]) * np.sin(p[..., 1]),
            np.cos(p[..., 0]),
        ],
        axis=-1,
    ),
    du=lambda p: np.stack(
        [
            np.cos(p[..., 0]) * np.cos(p[..., 1]),
            np.cos(p[..., 0]) * np.sin(p[..., 1]),
            -np.sin(p[..., 0]),
        ],
        axis=-1,
    ),
    dv=lambda p: np.stack(
        [
            -np.sin(p[..., 0]) * np.sin(p[..., 1]),
            np.sin(p[..., 0]) * np.cos(p[..., 1]),
            np.zeros(p.shape[:-1]),
        ],
        axis=-1,
    ),
)

HEMISPHERE = ParametricSurface(
    domain=_HEMISPHERE_BOX, pos=SPHERE.pos, du=SPHERE.du, dv=SPHERE.dv
)

DISK_PATCH = ParametricSurface(
    domain=_POLAR_BOX,
    pos=lambda p: np.stack(
        [
            p[..., 0] * np.cos(p[..., 1]),
            p[..., 0] * np.sin(p[..., 1]),
            np.zeros(p.shape[:-1]),
        ],
        axis=-1,
    ),
    du=lambda p: np.stack(
        [np.cos(p[..., 1]), np.sin(p[..., 1]), np.zeros(p.shape[:-1])], axis=-1
    ),
    dv=lambda p: np.stack(
        [
            -p[..., 0] * np.sin(p[..., 1]),
            p[..., 0] * np.cos(p[..., 1]),
            np.zeros(p.shape[:-1]),
        ],
        axis=-1,
    ),
)

DISK_REGION = ParametricRegion(
    dim=2,
    param_box=_POLAR_BOX,
    mapping=lambda p: np.stack(
        [p[..., 0] * np.cos(p[..., 1]), p[..., 0] * np.sin(p[..., 1])], axis=-1
    ),
    jac_det=lambda p: p[..., 0],
    boundary=(CIRCLE_2D,),
)

BALL_REGION = ParametricRegion(
    dim=3,
    param_box=_SPHERICAL_BOX,
    mapping=lambda p: np.stack(
        [
            p[..., 0] * np.sin(p[..., 1]) * np.cos(p[..., 2]),
            p[..., 0] * np.sin(p[..., 1]) * np.sin(p[..., 2]),
            p[..., 0] * np.cos(p[..., 1]),
        ],
        axis=-1,
    ),
    jac_det=lambda p: p[..., 0] ** 2 * np.sin(p[..., 1]),
    boundary=(SPHERE,),
)


def _axis_patch(const_axis: int, const_val: float) -> ParametricSurface:
    """Unit-square face of the unit cube, (u, v) along its free axes in order."""
    free = [a for a in range(3) if a != const_axis]

    def pos(p):
        coords = [None, None, None]
        coords[const_axis] = np.full(p.shape[:-1], const_val)
        coords[free[0]] = p[..., 0]
        coords[free[1]] = p[..., 1]
        return np.stack(coords, axis=-1)

    def deriv(axis):
        def handle(p):
            out = np.zeros(p.shape[:-1] + (3,))
            out[..., axis] = 1.0
            return out

        return handle

    return ParametricSurface(
        domain=UNIT_SQUARE, pos=pos, du=deriv(free[0]), dv=deriv(free[1])
    )


# Outward faces: du x dv of an unswapped face points along +axis for axes 0
# and 2 and along -axis for axis 1, so the x = 0, y = 1 and z = 0 faces swap
# (u, v) to point away from the cube.
CUBE_FACES = (
    _axis_patch(0, 1.0),
    swap_surface(_axis_patch(0, 0.0)),
    swap_surface(_axis_patch(1, 1.0)),
    _axis_patch(1, 0.0),
    _axis_patch(2, 1.0),
    swap_surface(_axis_patch(2, 0.0)),
)

CUBE_REGION = ParametricRegion(
    dim=3,
    param_box=UNIT_CUBE,
    mapping=lambda p: p,
    jac_det=_ones,
    boundary=CUBE_FACES,
)


# --- fields -------------------------------------------------------------------

SINPROD_2D = ScalarField(
    dim=2,
    fn=lambda p: np.sin(p[..., 0]) * np.sin(p[..., 1]),
    grad=lambda p: np.stack(
        [
            np.cos(p[..., 0]) * np.sin(p[..., 1]),
            np.sin(p[..., 0]) * np.cos(p[..., 1]),
        ],
        axis=-1,
    ),
    bound_M=math.sin(1.0) ** 2,
)

SQUARES_3D = ScalarField(
    dim=3,
    fn=lambda p: p[..., 0] ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2,
    grad=lambda p: 2.0 * p,
    bound_M=3.0,
)

UNIT_SPEED_2D = ScalarField(dim=2, fn=_ones, bound_M=1.0)
UNIT_DENSITY_3D = ScalarField(dim=3, fn=_ones, bound_M=1.0)

ROTATION_2D = VectorField(
    dim_in=2,
    dim_out=2,
    fn=lambda p: np.stack([-p[..., 1], p[..., 0]], axis=-1),
    curl=lambda p: 2.0 * np.ones(p.shape[:-1]),  # dQ/dx - dP/dy
)

ROTATION_3D = VectorField(
    dim_in=3,
    dim_out=3,
    fn=lambda p: np.stack(
        [-p[..., 1], p[..., 0], np.zeros(p.shape[:-1])], axis=-1
    ),
    curl=lambda p: np.stack(
        [np.zeros(p.shape[:-1]), np.zeros(p.shape[:-1]), 2.0 * np.ones(p.shape[:-1])],
        axis=-1,
    ),
)

IDENTITY_3D = VectorField(
    dim_in=3,
    dim_out=3,
    fn=lambda p: p,
    div=lambda p: 3.0 * np.ones(p.shape[:-1]),
    curl=lambda p: np.zeros(p.shape[:-1] + (3,)),
)

X_FIELD_3D = VectorField(
    dim_in=3,
    dim_out=3,
    fn=lambda p: np.stack(
        [p[..., 0], np.zeros(p.shape[:-1]), np.zeros(p.shape[:-1])], axis=-1
    ),
    div=_ones,
)


# --- registry -----------------------------------------------------------------

register_scenario(
    Scenario(
        name="box.sinprod.2d",
        kind="box",
        exact=(2.0 * math.sin(0.5) ** 2) ** 2,
        note="product of 1D integrals: (int_0^1 sin)^2 = (2 sin^2(1/2))^2",
        field=SINPROD_2D,
        box=UNIT_SQUARE,
        default_m=256,
        tolerances=(
            ("full", 1e-6),
            ("deleted", 1e-3),
            ("perturbed", 1e-2),
            ("combined", 1e-2),
        ),
    )
)

register_scenario(
    Scenario(
        name="box.poly.3d",
        kind="box",
        exact=1.0,
        note="int over [0,1]^3 of x^2+y^2+z^2 = 3 * 1/3",
        field=SQUARES_3D,
        box=UNIT_CUBE,
        default_m=32,
        tolerances=(("full", 1e-3), ("deleted", 1e-2)),
    )
)

register_scenario(
    Scenario(
        name="line.circle.scalar",
        kind="line",
        exact=TWO_PI,
        note="arc length of the unit circle",
        field=UNIT_SPEED_2D,
        path=CIRCLE_2D,
        default_m=1024,
        tolerances=(("full", 1e-9),),
    )
)

register_scenario(
    Scenario(
        name="line.circle.rotation",
        kind="line",
        exact=TWO_PI,
        note="circulation of (-y, x) around the unit circle = 2 * area",
        field=ROTATION_2D,
        path=CIRCLE_2D,
        default_m=1024,
        tolerances=(("full", 1e-9),),
    )
)

register_scenario(
    Scenario(
        name="surface.sphere.area",
        kind="surface",
        exact=4.0 * math.pi,
        note="area of the unit sphere",
        field=UNIT_DENSITY_3D,
        surface=SPHERE,
        default_m=128,
        tolerances=(("full", 1e-2),),
    )
)

register_scenario(
    Scenario(
        name="surface.sphere.flux",
        kind="surface",
        exact=4.0 * math.pi,
        note="flux of (x,y,z) through the unit sphere; F.n = 1 on it",
        field=IDENTITY_3D,
        surface=SPHERE,
        default_m=128,
        tolerances=(("full", 1e-2),),
    )
)

register_scenario(
    Scenario(
        name="green.disk.rotation",
        kind="green",
        exact=TWO_PI,
        note="both Green sides for (-y,x) on the unit disk: 2 * area",
        field=ROTATION_2D,
        region=DISK_REGION,
        default_m=256,
        boundary_factor=16,
        gap_tolerance=2e-2,
    )
)

register_scenario(
    Scenario(
        name="gauss.ball.identity",
        kind="gauss",
        exact=4.0 * math.pi,
        note="divergence theorem for (x,y,z) on the unit ball: 3 * volume",
        field=IDENTITY_3D,
        region=BALL_REGION,
        default_m=64,
        boundary_factor=2,
        gap_tolerance=5e-2,
    )
)

register_scenario(
    Scenario(
        name="gauss.cube.xfield",
        kind="gauss",
        exact=1.0,
        note="divergence theorem for (x,0,0) on the unit cube: volume",
        field=X_FIELD_3D,
        region=CUBE_REGION,
        default_m=16,
        boundary_factor=2,
        gap_tolerance=5e-3,
    )
)

register_scenario(
    Scenario(
        name="stokes.disk.rotation",
        kind="stokes",
        exact=TWO_PI,
        note="both Stokes sides for (-y,x,0) on the flat unit disk",
        field=ROTATION_3D,
        surface=DISK_PATCH,
        path=CIRCLE_3D,
        default_m=256,
        boundary_factor=16,
        gap_tolerance=2e-2,
    )
)

register_scenario(
    Scenario(
        name="stokes.hemisphere.rotation",
        kind="stokes",
        exact=TWO_PI,
        note="same boundary circle as the disk; curl flux is surface-independent",
        field=ROTATION_3D,
        surface=HEMISPHERE,
        path=CIRCLE_3D,
        default_m=256,
        boundary_factor=16,
        gap_tolerance=2e-2,
    )
)
