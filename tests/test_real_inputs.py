"""Every real-valued input refuses what is not a finite real number.

One row per exported function and input class that has a parameter annotated
`float` or a sequence of floats: a small valid call, into whose float
parameters NaN, +-inf, None, a numeric string and `True` are put in turn, one
slot at a time (each element of a sequence). Each such call must raise a
LevelformError; the one exception is an open end of a `GammaProfile`, which
may be infinite. The targets come from the signatures, so a new float
parameter without a row fails `test_every_float_parameter_has_a_row`. Every
`type=float` option of the command line is swept the same way through
`cli.entry`. A bool given as a count, dimension, seed or real is refused
too. Array arguments get the same sweep with a NaN or an infinite
element, an empty array, an array of the wrong dimension, ragged nesting,
strings, booleans and a list nested 3,000 deep; each must raise a
ConfigError. So must a 3,000-deep list given as a real or a count: the
refusal's text shows such an input cut short, not by a recursive `repr`.
"""

import argparse
import inspect
import math
import re

import numpy as np
import pytest

import levelform as lf
from levelform import cli
from levelform.errors import require_finite

# results, built by the package, not read from a caller
RESULT_TYPES = {"Estimate", "CriticalProfile", "IntegrabilityScan", "WindowVerdict",
                "SparseFamily", "DensityEstimate", "Phase"}
# `True` would reach numpy as 1.0 inside a sequence such as box bounds
BAD = [math.nan, math.inf, -math.inf, None, "1", True]

BALL2 = lf.ball(2)
LINEAR = lf.linear_phase(BALL2)
KERNEL = lf.hilbert_kernel()
CUTOFF = lf.smoothstep_cutoff()
F64 = lf.GridFunction1D(0.0, 1.0, np.ones(64))
F8, G8 = lf.bump_mixture(0.0, 1.0, 8, 0), lf.bump_mixture(0.0, 1.0, 8, 1)


def first_axis(p):
    return p[:, 0]


# one small valid call per target; each names all of the target's float parameters
ROWS = {
    "Domain": dict(n=2, shape="box", radius=1.0, bounds=((0.0, 1.0), (0.0, 2.0))),
    "ball": dict(n=2, radius=1.0),
    "box": dict(bounds=[(0.0, 1.0), (0.0, 2.0)]),
    "radial_power_phase": dict(domain=BALL2, gamma=4.0),
    "oscillatory_phase": dict(domain=BALL2, amplitude=0.5, frequency=1.0),
    "GammaProfile": dict(fn=np.ones_like, lo=0.0, hi=1.0),
    "design_reparametrization": dict(profile=lf.GammaProfile(lambda t: t, 0.5, 10.0),
                                     m=lambda s: 1.0, h0=1.0, s_range=(0.0, 1.0), step=0.1),
    "boundary_transversality": dict(phase=LINEAR, t=0.5),
    "Kernel1D": dict(evaluate=KERNEL.evaluate, size_constant=1.0),
    "GridFunction1D": dict(a=0.0, b=1.0, values=np.ones(8)),
    "bump_mixture": dict(a=0.0, b=1.0, m=8, seed=0),
    "hard_truncation": dict(kernel=KERNEL, F=F64, eps=0.1),
    "smooth_truncation": dict(kernel=KERNEL, cutoff=CUTOFF, F=F64, eps=0.1),
    "residual_truncation": dict(kernel=KERNEL, cutoff=CUTOFF, F=F64, eps=0.1),
    "truncation_batch": dict(kernel=KERNEL, functions=[F64], eps=0.1, jobs=[(lf.HARD, None)]),
    "smoothed_dini_constant": dict(kernel=KERNEL, cutoff=CUTOFF, eps_values=[0.1, 0.05]),
    "LevelGrid": dict(t_min=0.0, t_max=1.0, bin_count=4),
    "fiber_norm": dict(phase=LINEAR, f=None, r=2.0, t=0.1),
    "SynchronizedForm": dict(phase_in=LINEAR, phase_out=LINEAR, kernel=KERNEL,
                             f=first_axis, g=first_axis, eps=0.25),
    "critical_window": dict(beta_in=0.5, beta_out=0.25),
    "integrability_scan": dict(beta=0.5, a=1.0),
    "window_verdict": dict(beta_in=0.5, beta_out=0.25, r=1.5),
    "pullback_norm": dict(phase=lf.radial_quadratic_phase(BALL2), f=None, r=2.0, delta=0.01),
    "function_norm": dict(domain=BALL2, f=first_axis, r=2.0, sample_count=256),
    "uniform_bound_check": dict(phase_in=LINEAR, phase_out=lf.radial_quadratic_phase(BALL2),
                                kernel=KERNEL, f=first_axis, g=first_axis, r=2.0,
                                eps_values=[0.25], bins=16, fiber_nodes=16, subdivide=1),
    "build_sparse_greedy": dict(F=F8, G=G8, lam=4.0, max_depth=3),
    "domination_ratio": dict(lhs_value=0.5, family=lf.build_sparse_greedy(F8, G8, max_depth=3),
                             F=F8, G=G8),
}


def exported():
    """(name, object) of every exported function and class but the errors."""
    return [(name, obj) for name, obj in sorted(vars(lf).items())
            if callable(obj) and getattr(obj, "__module__", "").startswith("levelform.")
            and not (isinstance(obj, type) and issubclass(obj, BaseException))]


def float_parameters(obj):
    return [p.name for p in inspect.signature(obj).parameters.values()
            if re.search(r"\bfloat\b", str(p.annotation))]


def slots(value, path=()):
    """Index paths of the number leaves of a number or nested sequence."""
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from slots(item, path + (i,))
    else:
        yield path


def substitute(value, path, bad):
    if not path:
        return bad
    items = list(value)
    items[path[0]] = substitute(items[path[0]], path[1:], bad)
    return type(value)(items)


def cases():
    for name, kwargs in ROWS.items():
        for param in [p for p in float_parameters(getattr(lf, name)) if p in kwargs]:
            for path in slots(kwargs[param]):
                for bad in BAD:
                    call = {**kwargs, param: substitute(kwargs[param], path, bad)}
                    label = f"{name}-{param}{''.join(f'[{i}]' for i in path)}-{bad!r}"
                    yield pytest.param(name, call, id=label)


def test_every_float_parameter_has_a_row():
    targets = {name: float_parameters(obj) for name, obj in exported()
               if name not in RESULT_TYPES and not name.endswith("Report")}
    targets = {name: params for name, params in targets.items() if params}
    assert sorted(ROWS) == sorted(targets)
    missing = {name: set(params) - set(ROWS[name]) for name, params in targets.items()
               if set(params) - set(ROWS[name])}
    assert not missing, f"float parameters without a base value: {missing}"


@pytest.mark.parametrize("name", ROWS)
def test_base_call_is_valid(name):
    getattr(lf, name)(**ROWS[name])


@pytest.mark.parametrize("name, call", cases())
def test_non_finite_real_input_is_refused(name, call):
    if name == "GammaProfile" and (call["lo"] == -math.inf or call["hi"] == math.inf):
        lf.GammaProfile(**call)  # an open end is documented
        return
    with pytest.raises(lf.LevelformError):
        getattr(lf, name)(**call)


def float_options():
    parser = cli.build_parser()
    commands, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, sub in commands.choices.items()
            for action in sub._actions if action.type is float]


def test_float_options_are_found():
    assert set(float_options()) == {("density", "--t-lo"), ("density", "--t-hi"),
                                    ("reduce", "--eps"), ("sparse", "--lam"),
                                    ("regime", "--t-lo"), ("regime", "--t-hi")}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, option", float_options())
def test_non_finite_float_option_exits_2(command, option, value, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["levelform", command, f"{option}={value}"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# `True` and `False` are Python ints, but no count, dimension, seed or real
# argument takes them as 1 and 0
BOOLEAN_CALLS = {
    "ball n=True": lambda: lf.ball(True),
    "ball radius=True": lambda: lf.ball(2, True),
    "sample_domain count=True": lambda: lf.sample_domain(BALL2, True, 0),
    "sample_domain seed=False": lambda: lf.sample_domain(BALL2, 4, False),
    "linear_phase axis=False": lambda: lf.linear_phase(BALL2, axis=False),
    "bump_mixture m=True": lambda: lf.bump_mixture(0.0, 1.0, True, 0),
    "hard_truncation eps=True": lambda: lf.hard_truncation(KERNEL, F64, True),
}


@pytest.mark.parametrize("call", BOOLEAN_CALLS.values(), ids=BOOLEAN_CALLS)
def test_booleans_are_not_numbers(call):
    with pytest.raises(lf.ConfigError):
        call()


# array arguments: a small valid call, the array parameter, and an array of
# the wrong dimension for it
ARRAY_ROWS = {
    "GridFunction1D": (dict(a=0.0, b=1.0, values=np.ones(8)), "values", np.ones((8, 2))),
    "box": (dict(bounds=[(0.0, 1.0), (0.0, 2.0)]), "bounds", [(0.0, 1.0, 2.0)]),
    "eval_phase": (dict(phase=LINEAR, x=np.zeros((3, 2))), "x", np.zeros((3, 3))),
    "grad_phase": (dict(phase=LINEAR, x=np.zeros((3, 2))), "x", np.zeros(3)),
    "hard_truncation": (dict(kernel=KERNEL, F=F64, eps=0.1, eval_points=np.linspace(0, 1, 5)),
                        "eval_points", np.zeros((5, 2))),
    "ReparamTable": (dict(s=np.linspace(0, 1, 5), values=np.linspace(1, 2, 5)), "s",
                     np.zeros((5, 2))),
}


def nested(depth):
    """[[...[0.0]...]], `depth` lists deep; numpy refuses more than 64 dimensions."""
    out = [0.0]
    for _ in range(depth - 1):
        out = [out]
    return out


def with_first(array, value):
    out = np.array(array, dtype=float)
    out.flat[0] = value
    return out


def array_cases():
    for name, (kwargs, param, wrong_dimension) in ARRAY_ROWS.items():
        valid = kwargs[param]
        bads = {"nan": with_first(valid, math.nan), "inf": with_first(valid, math.inf),
                "-inf": with_first(valid, -math.inf), "empty": [],
                "wrong dimension": wrong_dimension,
                "numeric strings": np.asarray(valid, dtype=float).astype(str),
                "booleans": np.ones(np.shape(valid), dtype=bool),
                "a string": "a", "ragged": [list(np.ravel(valid)), [0.0]],
                "nested 3,000 deep": nested(3_000)}
        for label, bad in bads.items():
            yield pytest.param(name, {**kwargs, param: bad}, id=f"{name}-{param}-{label}")


@pytest.mark.parametrize("name", ARRAY_ROWS)
def test_array_base_call_is_valid(name):
    getattr(lf, name)(**ARRAY_ROWS[name][0])


@pytest.mark.parametrize("name, call", array_cases())
def test_bad_array_input_is_refused(name, call):
    with pytest.raises(lf.ConfigError):
        getattr(lf, name)(**call)


DEEP_NUMBER_CALLS = {
    "ball radius": lambda: lf.ball(2, nested(3_000)),
    "ball dimension": lambda: lf.ball(nested(3_000)),
    "GridFunction1D b": lambda: lf.GridFunction1D(0.0, nested(3_000), np.ones(4)),
}


@pytest.mark.parametrize("call", DEEP_NUMBER_CALLS.values(), ids=DEEP_NUMBER_CALLS)
def test_a_deeply_nested_list_is_refused_as_a_number(call):
    with pytest.raises(lf.ConfigError, match=r"got \[+\.\.\.\]+$"):
        call()


FIRST_BAD = {
    "nan": ([1.0, np.nan, np.inf], "nan"),
    "-inf": (np.array([[2.0, 3.0], [-np.inf, np.nan]]), "-inf"),
    "0-d": (np.float64(np.inf), "inf"),
    "complex": (np.array([1.0, complex(0.0, np.nan)]), "nanj"),
    "complex inf": ([1j, complex(np.inf, 1.0)], "(inf+1j)"),
}


@pytest.mark.parametrize("values, named", FIRST_BAD.values(), ids=FIRST_BAD)
def test_require_finite_names_the_first_bad_value(values, named):
    with pytest.raises(lf.ConfigError) as info:
        require_finite(values, "some values")
    assert str(info.value) == f"some values must be finite, got {named}"


def test_require_finite_returns_a_good_array_as_it_is():
    values = np.arange(6.0).reshape(2, 3)
    assert require_finite(values, "some values") is values
    assert require_finite(np.arange(3), "some values").dtype == np.arange(3).dtype
