import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvos.copula import Comonotone, GumbelLogistic, Independence
from mvos.dnorm import ConstantOne, FrechetLogistic, GeneratorBased, LogisticP, RandomIndex, SupNorm
from mvos.experiment import ExperimentConfig, TolerancePolicy, config_from_json, config_to_json
from mvos.margins import Pareto, StandardExponential, StandardNormal, Triangular
from mvos.orderstats import IntermediateSpec, PowerKRule
from mvos.wire import InvalidConfigError, from_json, to_json

# Inputs and the exact json.dumps(config_to_json(cfg), sort_keys=True) text
# the hand-written codec produced for them; the wire format must not drift.
GOLDEN_CONFIGS = {
    "copula": (
        {"kind": "copula", "copula": {"kind": "gumbel", "d": 2, "p": 3},
         "intermediate": {"rules": [{"c": 2, "gamma": 0.6}, {"c": 1.0, "gamma": 0.6}]},
         "n": 5000, "replications": 100, "seed": 7},
        '{"copula": {"d": 2, "kind": "gumbel", "p": 3.0}, "gate_ks": true, "intermediate": '
        '{"convention": "n-k", "rules": [{"c": 2.0, "gamma": 0.6}, {"c": 1.0, "gamma": 0.6}]}, '
        '"kind": "copula", "ks_level": 0.001, "margins": null, "n": 5000, "replications": 100, '
        '"seed": 7, "seed_overridden": false, "tolerance": {"abs_tol": 0.05, "z": 4.0}}',
    ),
    "general": (
        {"kind": "general", "copula": {"kind": "independence", "d": 3},
         "margins": [{"kind": "normal"}, {"kind": "pareto", "alpha": 2.5}, {"kind": "triangular"}],
         "n": 2000, "replications": 50, "seed": 3,
         "tolerance": {"abs_tol": 0.02, "z": 3}, "ks_level": 0.01, "gate_ks": False},
        '{"copula": {"d": 3, "kind": "independence"}, "gate_ks": false, "intermediate": '
        '{"convention": "n-k+1", "rules": [{"c": 1.0, "gamma": 0.5}, {"c": 1.0, "gamma": 0.5}, '
        '{"c": 1.0, "gamma": 0.5}]}, "kind": "general", "ks_level": 0.01, "margins": '
        '[{"kind": "normal"}, {"alpha": 2.5, "kind": "pareto"}, {"kind": "triangular"}], '
        '"n": 2000, "replications": 50, "seed": 3, "seed_overridden": false, '
        '"tolerance": {"abs_tol": 0.02, "z": 3.0}}',
    ),
    "representation": (
        {"kind": "representation", "copula": {"kind": "comonotone", "d": 2},
         "lambda_override": [[1, 0.5], [0.5, 1]], "n": 400, "replications": 20, "seed": 11},
        '{"copula": {"d": 2, "kind": "comonotone"}, "gate_ks": true, "intermediate": '
        '{"convention": "n-k", "rules": [{"c": 1.0, "gamma": 0.5}, {"c": 1.0, "gamma": 0.5}]}, '
        '"kind": "representation", "ks_level": 0.001, "lambda_override": [[1.0, 0.5], [0.5, 1.0]], '
        '"margins": null, "n": 400, "replications": 20, "seed": 11, "seed_overridden": false, '
        '"tolerance": {"abs_tol": 0.05, "z": 4.0}}',
    ),
}


class TestGolden:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_CONFIGS))
    def test_config_text(self, kind):
        obj, text = GOLDEN_CONFIGS[kind]
        assert json.dumps(config_to_json(config_from_json(obj)), sort_keys=True) == text

    def test_readme_dnorm_spec_keeps_d_beside_gen(self):
        text = '{"kind":"generator","gen":{"kind":"frechet","p":2},"d":2,"mc_samples":100000}'
        spec = from_json("dnorm", json.loads(text))
        assert spec == GeneratorBased(FrechetLogistic(2, 2.0), 100000)
        assert isinstance(spec.gen.p, float)

    def test_integer_floats_are_emitted_as_floats(self):
        assert to_json(from_json("margin", {"kind": "pareto", "alpha": 2})) == {"kind": "pareto", "alpha": 2.0}
        assert to_json(from_json("copula", {"kind": "gumbel", "d": 2, "p": 3}))["p"] == 3.0


class TestRejection:
    @pytest.mark.parametrize(
        "family,obj",
        [
            ("dnorm", {"kind": "cauchy"}),
            ("dnorm", {"kind": "logistic", "p": 0.5}),
            ("dnorm", {"kind": "logistic"}),
            ("dnorm", [1, 2]),
            ("dnorm", {"kind": "generator", "gen": {"kind": "frechet", "p": 2}}),
            ("copula", {"kind": "independence"}),
            ("copula", {"kind": "gumbel", "d": "two", "p": 2}),
            ("margin", {"kind": "pareto", "alpha": -1}),
            ("margin", "normal"),
            ("margin", {"kind": "pareto", "alpha": "2"}),
            ("dnorm", {"kind": "generator", "gen": {"kind": "frechet", "p": 2, "d": 3}, "d": 2}),
            ("dnorm", {"kind": "generator", "gen": {"kind": "constant"}, "d": 2, "mc_samples": 10.5}),
        ],
    )
    def test_invalid_config_error(self, family, obj):
        with pytest.raises(InvalidConfigError):
            from_json(family, obj)

    @pytest.mark.parametrize(
        "field,value", [("gate_ks", "false"), ("gate_ks", 0), ("n", 2.7), ("n", True), ("n", "500"), ("seed", None)]
    )
    def test_config_scalar_types_are_not_coerced(self, field, value):
        obj = {**GOLDEN_CONFIGS["copula"][0], field: value}
        with pytest.raises(InvalidConfigError):
            config_from_json(obj)

    def test_integral_float_is_an_int(self):
        assert config_from_json({**GOLDEN_CONFIGS["copula"][0], "n": 5000.0}).n == 5000


def test_generator_dimension_may_be_given_in_both_places_when_equal():
    spec = from_json("dnorm", {"kind": "generator", "gen": {"kind": "frechet", "p": 2, "d": 2}, "d": 2})
    assert spec == GeneratorBased(FrechetLogistic(2, 2.0))


def test_seed_overridden_comes_only_from_the_override():
    obj = {**GOLDEN_CONFIGS["copula"][0], "seed_overridden": True}
    assert not config_from_json(obj).seed_overridden
    cfg = config_from_json(obj, seed_override=5)
    assert cfg.seed_overridden and cfg.seed == 5


generators = st.one_of(
    st.builds(ConstantOne, st.integers(1, 8)),
    st.builds(RandomIndex, st.integers(1, 8)),
    st.builds(FrechetLogistic, st.integers(1, 8), st.floats(1.0, 50.0, exclude_min=True)),
)
FAMILY_MEMBERS = {
    "dnorm": st.one_of(
        st.just(SupNorm()),
        st.builds(LogisticP, st.floats(1.0, 50.0)),
        st.builds(GeneratorBased, generators, st.integers(1, 10**7)),
    ),
    "copula": st.one_of(
        st.builds(Independence, st.integers(1, 8)),
        st.builds(Comonotone, st.integers(1, 8)),
        st.builds(GumbelLogistic, st.integers(1, 8), st.floats(1.0, 50.0)),
    ),
    "margin": st.one_of(
        st.sampled_from([StandardNormal(), StandardExponential(), Triangular()]),
        st.builds(Pareto, st.floats(0.0, 100.0, exclude_min=True)),
    ),
}


# a config's margins need norming constants at every n drawn below: Pareto
# alpha under about 0.015 puts b = F^-1(1 - k/n) at infinity, and the
# config is rejected
RUNNABLE_MARGINS = st.one_of(
    st.sampled_from([StandardNormal(), StandardExponential(), Triangular()]),
    st.builds(Pareto, st.floats(0.05, 100.0)),
)


def through_text(obj):
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("family", sorted(FAMILY_MEMBERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_family_round_trip(family, data):
    x = data.draw(FAMILY_MEMBERS[family])
    assert from_json(family, to_json(x)) == x
    assert from_json(family, through_text(to_json(x))) == x


@st.composite
def configs(draw):
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["copula", "general", "representation"]))
    copula = draw(st.sampled_from([Independence(d), Comonotone(d), GumbelLogistic(d, 2.0)]))
    gamma = draw(st.floats(0.3, 0.7))
    if kind == "representation":
        rules = (PowerKRule(draw(st.floats(0.5, 2.0)), gamma),) * d
    else:
        rules = tuple(PowerKRule(draw(st.floats(0.5, 2.0)), gamma) for _ in range(d))
    # representation runs need the n-k convention and one replication,
    # moment runs two replications
    convention = "n-k" if kind == "representation" else draw(st.sampled_from(["n-k", "n-k+1"]))
    lam = None
    if kind == "representation" and draw(st.booleans()):
        lam = np.full((d, d), draw(st.floats(0.0, 0.99)))
        np.fill_diagonal(lam, 1.0)
    return ExperimentConfig(
        copula=copula,
        n=draw(st.integers(200, 10**6)),
        replications=draw(st.integers(1 if kind == "representation" else 2, 10**6)),
        seed=draw(st.integers(0, 2**63)),
        kind=kind,
        margins=tuple(draw(RUNNABLE_MARGINS) for _ in range(d)) if kind == "general" else None,
        intermediate=IntermediateSpec(rules, convention),
        tolerance=TolerancePolicy(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 10.0))),
        ks_level=draw(st.floats(1e-6, 0.5)),
        gate_ks=draw(st.booleans()),
        lambda_override=lam,
    )


@settings(max_examples=100, deadline=None)
@given(cfg=configs())
def test_config_round_trip(cfg):
    obj = config_to_json(cfg)
    again = config_from_json(through_text(obj))
    assert config_to_json(again) == obj
    # the ndarray field defeats dataclass equality; compare it apart
    assert dataclasses.replace(again, lambda_override=None) == dataclasses.replace(cfg, lambda_override=None)
    if cfg.lambda_override is not None:
        assert np.array_equal(again.lambda_override, cfg.lambda_override)
