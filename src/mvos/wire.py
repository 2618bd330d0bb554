"""The JSON wire format of every model the CLI and the experiment configs read.

A tagged family maps its ``kind`` tags to dataclasses; any other dataclass
travels untagged as its field mapping.  Parsing builds through the
constructors, so the models' own checks are the validation, and every
parse fault surfaces as :class:`InvalidConfigError`.  A ``bool`` field
takes only a JSON boolean, an ``int`` field only an integral number and
a ``float`` field only a number; keys the target does not declare are
ignored, and a null value counts as absent.
"""
from __future__ import annotations

import numbers
from dataclasses import fields, is_dataclass
from functools import cache
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .copula import Comonotone, CopulaModel, GumbelLogistic, Independence
from .dnorm import ConstantOne, DNormSpec, FrechetLogistic, Generator, GeneratorBased, LogisticP, RandomIndex, SupNorm
from .margins import MarginalModel, Pareto, StandardExponential, StandardNormal, Triangular

__all__ = ["FAMILIES", "InvalidConfigError", "from_json", "to_json"]


class InvalidConfigError(ValueError):
    """Raised for input that fails parsing or validation before any sampling."""


# family name -> (field annotation that selects the family, kind tag -> dataclass)
FAMILIES = {
    "dnorm": (DNormSpec, {"sup": SupNorm, "logistic": LogisticP, "generator": GeneratorBased}),
    "generator": (Generator, {"constant": ConstantOne, "random_index": RandomIndex, "frechet": FrechetLogistic}),
    "copula": (CopulaModel, {"independence": Independence, "comonotone": Comonotone, "gumbel": GumbelLogistic}),
    "margin": (MarginalModel, {
        "normal": StandardNormal, "exponential": StandardExponential, "pareto": Pareto, "triangular": Triangular,
    }),
}
_TAGS = {cls: tag for _, table in FAMILIES.values() for tag, cls in table.items()}


def from_json(family, obj):
    """Parse ``obj`` as a member of ``family``: a name in :data:`FAMILIES`
    (tagged by ``kind``) or a dataclass (untagged)."""
    try:
        return _decode(FAMILIES[family][0] if isinstance(family, str) else family, obj)
    except InvalidConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfigError(f"bad {getattr(family, '__name__', family)}: {exc}") from exc


def to_json(obj):
    """Plain JSON data: a dataclass becomes its fields (plus its kind tag, if any)
    and an array a nested list."""
    if is_dataclass(obj):
        out = {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
        return {"kind": _TAGS[type(obj)], **out} if type(obj) in _TAGS else out
    if isinstance(obj, dict):
        return {key: to_json(val) for key, val in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _decode(tp, value):
    for family, (base, table) in FAMILIES.items():
        if tp == base:
            kind = value.get("kind") if isinstance(value, dict) else None
            if kind not in table:
                raise InvalidConfigError(f"{family} needs a kind from {sorted(table)}, got {value!r}")
            return _build(table[kind], value)
    if get_origin(tp) is Union:  # Optional[X]: null never reaches here
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
        return _decode(tp, value)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise InvalidConfigError(f"expected a JSON list, got {value!r}")
        return tuple(_decode(get_args(tp)[0], v) for v in value)
    if is_dataclass(tp):
        return _build(tp, value)
    if tp is np.ndarray:
        return np.asarray(value, dtype=float)
    return _scalar(tp, value)


def _scalar(tp, value):
    if tp is bool or tp is str:
        ok = isinstance(value, tp)
    else:  # int or float
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and (tp is float or isinstance(value, numbers.Integral) or float(value).is_integer()))
    if not ok:
        raise InvalidConfigError(f"expected a JSON {'number' if tp is float else tp.__name__}, got {value!r}")
    return tp(value)


@cache
def _type_hints(cls) -> dict:
    # resolving string annotations is most of a parse; the classes are fixed
    return get_type_hints(cls)


def _build(cls, obj):
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{cls.__name__} must be a JSON object, got {obj!r}")
    outer = obj.get("d") if cls is GeneratorBased else None
    if outer is not None and isinstance(obj.get("gen"), dict):
        # the CLI form keeps the dimension beside the generator
        inner = obj["gen"].get("d")
        if inner is not None and inner != outer:
            raise InvalidConfigError(f"generator norm has d = {outer!r} beside gen but d = {inner!r} inside it")
        obj = {**obj, "gen": {**obj["gen"], "d": outer}}
    hints = _type_hints(cls)
    return cls(**{f.name: _decode(hints[f.name], obj[f.name]) for f in fields(cls) if obj.get(f.name) is not None})
