"""Every class-typed input refuses an object of another type.

One row per exported function with a parameter annotated as a class the
package exports (`X`, or `X | None`): a small valid call. Into each such
parameter `5` is put in turn, by keyword and by position, and the call must
raise ConfigError with the text "<parameter> must be a <class>, got 5". A
`| None` parameter is given None too, which must not be refused for its
type. The targets come from the signatures, so a new class-typed parameter
without a row fails `test_every_class_parameter_has_a_row`.
"""

import inspect

import numpy as np
import pytest

import levelform as lf

CLASSES = {name: obj for name, obj in vars(lf).items() if isinstance(obj, type)}

BALL2 = lf.ball(2)
LINEAR = lf.linear_phase(BALL2)
QUADRATIC = lf.radial_quadratic_phase(BALL2)
KERNEL = lf.hilbert_kernel()
CUTOFF = lf.smoothstep_cutoff()
F64 = lf.GridFunction1D(0.0, 1.0, np.ones(64))
F8, G8 = lf.bump_mixture(0.0, 1.0, 8, 0), lf.bump_mixture(0.0, 1.0, 8, 1)
FAMILY = lf.build_sparse_greedy(F8, G8, max_depth=3)
GRID = lf.LevelGrid(-1.0, 1.0, 4)


def first_axis(p):
    return p[:, 0]


def identity(t):
    return t


def unit(s):
    return 1.0


FORM = lf.SynchronizedForm(LINEAR, LINEAR, KERNEL, first_axis, first_axis)

# one small valid call per target; each names all of the target's class-typed parameters
ROWS = {
    "boundary_reparam_phase": dict(domain=BALL2, profile=lf.ReparamTable(
        np.linspace(0.0, 1.0, 5), np.linspace(1.0, 2.0, 5))),
    "boundary_transversality": dict(phase=LINEAR, t=0.5),
    "build_sparse_greedy": dict(F=F8, G=G8, max_depth=3),
    "check_gamma_profile": dict(phase=QUADRATIC, profile=lf.GammaProfile(identity, 0.0, 1.0),
                                sample_count=64),
    "critical_exponent": dict(phase=QUADRATIC),
    "critical_values": dict(phase=QUADRATIC),
    "custom_phase": dict(domain=BALL2, fn=first_axis),
    "density_on_grid": dict(phase=LINEAR, grid=GRID, method=lf.CLOSED_FORM),
    "density_supremum": dict(phase=LINEAR),
    "design_reparametrization": dict(profile=lf.GammaProfile(identity, 0.5, 10.0), m=unit,
                                     h0=1.0, s_range=(0.0, 1.0), step=0.1),
    "domination_ratio": dict(lhs_value=0.5, family=FAMILY, F=F8, G=G8),
    "estimate_beta": dict(estimate=lf.density_on_grid(
        lf.radial_power_phase(BALL2, 4.0), lf.LevelGrid(1e-3, 1e-1, 16), lf.CLOSED_FORM)),
    "eval_phase": dict(phase=LINEAR, x=np.zeros(2)),
    "family_to_json_dict": dict(family=FAMILY),
    "fiber_norm": dict(phase=LINEAR, f=None, r=2.0, t=0.1),
    "function_norm": dict(domain=BALL2, f=first_axis, r=2.0, sample_count=64),
    "grad_phase": dict(phase=LINEAR, x=np.zeros(2)),
    "hard_truncation": dict(kernel=KERNEL, F=F64, eps=0.1),
    "hl_maximal": dict(F=F64),
    "image_interval": dict(phase=LINEAR),
    "lhs_direct": dict(form=FORM, sample_count=64),
    "linear_phase": dict(domain=BALL2),
    "oscillatory_phase": dict(domain=BALL2, amplitude=0.5, frequency=1.0),
    "pullback_norm": dict(phase=QUADRATIC, f=None, r=2.0),
    "radial_power_phase": dict(domain=BALL2, gamma=4.0),
    "radial_quadratic_phase": dict(domain=BALL2),
    "random_smooth_function": dict(domain=BALL2, seed=0),
    "residual_truncation": dict(kernel=KERNEL, cutoff=CUTOFF, F=F64, eps=0.1),
    "saddle_phase": dict(domain=BALL2),
    "sample_domain": dict(domain=BALL2, count=4, seed=0),
    "smooth_truncation": dict(kernel=KERNEL, cutoff=CUTOFF, F=F64, eps=0.1),
    "smoothed_dini_constant": dict(kernel=KERNEL, cutoff=CUTOFF, eps_values=[0.1]),
    "sparse_form": dict(family=FAMILY, F=F8, G=G8),
    "truncation_batch": dict(kernel=KERNEL, functions=[F64], eps=0.1, jobs=[(lf.HARD, None)]),
    "uniform_bound_check": dict(phase_in=LINEAR, phase_out=QUADRATIC, kernel=KERNEL,
                                f=first_axis, g=first_axis, r=2.0, eps_values=[0.25],
                                bins=16, fiber_nodes=16, subdivide=1),
    "verify_hk_package": dict(kernel=KERNEL, cutoff=CUTOFF),
    "verify_reduction_identity": dict(form=FORM, sample_count=64, bins=16,
                                      method=lf.MONTE_CARLO),
    "verify_sparsity": dict(family=FAMILY),
    "weighted_density": dict(phase=LINEAR, h=None, t=None, method=lf.MONTE_CARLO, grid=GRID,
                             sample_count=64),
    "weighted_density_closed_form": dict(phase=LINEAR, h=None, t=0.1),
    "weighted_density_coarea": dict(phase=LINEAR, h=None, t=0.1),
    "weighted_density_monte_carlo": dict(phase=LINEAR, h=None, grid=GRID, sample_count=64,
                                         seed=0),
}


def class_parameters(obj):
    """(name, class, whether None passes) of each parameter annotated `X` or
    `X | None`, X a class the package exports."""
    out = []
    for p in inspect.signature(obj).parameters.values():
        annotation = p.annotation if isinstance(p.annotation, str) else ""
        base = annotation.removesuffix(" | None")
        if base in CLASSES:
            out.append((p.name, CLASSES[base], base != annotation))
    return out


def exported_functions():
    return [(name, obj) for name, obj in sorted(vars(lf).items())
            if inspect.isfunction(obj) and obj.__module__.startswith("levelform.")]


def test_every_class_parameter_has_a_row():
    targets = {name: {p for p, _, _ in class_parameters(obj)} for name, obj in exported_functions()}
    targets = {name: params for name, params in targets.items() if params}
    assert sorted(ROWS) == sorted(targets)
    missing = {name: params - set(ROWS[name]) for name, params in targets.items()
               if not params <= set(ROWS[name])}
    assert not missing, f"class-typed parameters without a base value: {missing}"


@pytest.mark.parametrize("name", ROWS)
def test_base_call_is_valid(name):
    getattr(lf, name)(**ROWS[name])


def positional(obj, call):
    """`call` as positional arguments where the signature allows them."""
    bound = inspect.signature(obj).bind(**call)
    return bound.args, bound.kwargs


def cases():
    for name in ROWS:
        for param, kind, _ in class_parameters(getattr(lf, name)):
            for form in ("keyword", "positional"):
                yield pytest.param(name, param, kind, form, id=f"{name}-{param}-{form}")


@pytest.mark.parametrize("name, param, kind, form", cases())
def test_wrong_type_is_refused(name, param, kind, form):
    obj = getattr(lf, name)
    call = {**ROWS[name], param: 5}
    args, kwargs = positional(obj, call) if form == "positional" else ((), call)
    with pytest.raises(lf.ConfigError) as info:
        obj(*args, **kwargs)
    assert str(info.value) == f"{param} must be a {kind.__name__}, got 5"


def optional_cases():
    for name in ROWS:
        for param, _, optional in class_parameters(getattr(lf, name)):
            if optional:
                yield pytest.param(name, param, id=f"{name}-{param}")


def test_optional_slots_are_found():
    assert ("weighted_density", "grid") in [case.values for case in optional_cases()]


@pytest.mark.parametrize("name, param", optional_cases())
def test_none_is_not_refused_for_its_type(name, param):
    # the monte_carlo route refuses a missing grid by its own rule
    try:
        getattr(lf, name)(**{**ROWS[name], param: None})
    except lf.ConfigError as exc:
        assert "must be a" not in str(exc)
