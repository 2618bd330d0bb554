"""A record of which tests draw from which sampler, for false-alarm budgets.

A change to a sampler's random stream moves the draws of every test that
reaches it, and the statistical ones among them fail a correct program at
their stated rates.  With ``MVOS_DRAW_LOG`` naming a file, this hook writes
a JSON object mapping each test id to the sorted draws it made:

* ``sample_rows <model>`` for a ``copula.sample_rows`` call (which
  ``copula_sample`` and ``mvos sample`` make);
* ``os_selector <model> <path>`` for a ``copula.os_selector`` call, where
  the path is ``spacings`` for a model with no positive-stable frailty,
  ``marshall-olkin`` for a Gumbel config that draws all n rows
  (``copula._marshall_olkin_path``), and ``top-rows`` otherwise;
* ``mc_eval <generator>`` for a ``dnorm.mc_eval`` call (which
  ``dnorm_eval``, ``theoretical_sigma`` and ``dnorm_validate`` make for a
  generator-based norm);
* ``dnorm_validate <spec>`` for a ``dnorm.dnorm_validate`` call, which also
  draws its random vectors;
* ``stream_rng`` for a ``streams.stream_rng`` generator that the test (or
  a helper it loads) builds and that no ``sample_rows`` call is handed,
  so the test draws from it itself.

The draws of a shared fixture count for the first test that sets it up.
Run the suite of the commit before a stream change with it, and budget
the statistical tests whose ids carry the draws that change.  Without the
variable the hook does nothing.
"""
import json
import os
import sys

import numpy as np
import pytest

import mvos.copula as copula_module
import mvos.dnorm as dnorm_module
import mvos.streams as streams_module

_LOG = os.environ.get("MVOS_DRAW_LOG")
_draws: dict[str, set] = {}
_current = ["(no test)"]
# the test's own stream_rng generators, and the ids of those handed to sample_rows
_built: list = []
_handed: set = set()


def _path(model, n, ranks) -> str:
    if not copula_module._stable(model):
        return "spacings"
    depth = int(np.max(copula_module._depths(model, n, ranks)))
    return "marshall-olkin" if copula_module._marshall_olkin_path(model, n, depth) else "top-rows"


def _record(tag: str) -> None:
    _draws.setdefault(_current[0], set()).add(tag)


def pytest_configure(config):
    if not _LOG:
        return
    sample_rows, os_selector = copula_module.sample_rows, copula_module.os_selector
    mc_eval, dnorm_validate = dnorm_module.mc_eval, dnorm_module.dnorm_validate
    stream_rng = streams_module.stream_rng

    def logged_sample_rows(model, n, rng):
        _record(f"sample_rows {model.label()}")
        _handed.add(id(rng))
        return sample_rows(model, n, rng)

    def logged_os_selector(model, n, ranks):
        out = os_selector(model, n, ranks)  # invalid ranks raise before any record
        _record(f"os_selector {model.label()} {_path(model, n, ranks)}")
        return out

    def logged_mc_eval(spec, x, seed=None):
        _record(f"mc_eval {spec.gen.label()}")
        return mc_eval(spec, x, seed)

    def logged_dnorm_validate(spec, trials, seed=0):
        _record(f"dnorm_validate {spec.label()}")
        return dnorm_validate(spec, trials, seed)

    def logged_stream_rng(master_seed, *key):
        _built.append(stream_rng(master_seed, *key))
        return _built[-1]

    # in every mvos module that holds the name, whether it imported it
    # before this hook ran or not; stream_rng only where tests import it,
    # since copula_sample hands its generators to sample_rows and mc_eval's
    # are counted by their own tag
    logged = [(sample_rows, logged_sample_rows), (os_selector, logged_os_selector),
              (mc_eval, logged_mc_eval), (dnorm_validate, logged_dnorm_validate)]
    for module in [m for name, m in sys.modules.items() if name == "mvos" or name.startswith("mvos.")]:
        for name, value in list(vars(module).items()):
            for original, wrapper in logged:
                if value is original:
                    setattr(module, name, wrapper)
    streams_module.stream_rng = logged_stream_rng


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    _current[0] = item.nodeid
    yield
    if any(id(gen) not in _handed for gen in _built):
        _record("stream_rng")
    _built.clear()
    _handed.clear()
    _current[0] = "(no test)"


def pytest_sessionfinish(session, exitstatus):
    if _LOG:
        with open(_LOG, "w") as f:
            json.dump({test: sorted(tags) for test, tags in sorted(_draws.items())}, f, indent=1)
