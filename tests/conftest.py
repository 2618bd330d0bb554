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
  (``copula._marshall_olkin_path``), and ``top-rows`` otherwise.

The draws of a shared fixture count for the first test that sets it up.
Run the suite of the commit before a stream change with it, and budget
the statistical tests whose ids carry the draws that change.  Without the
variable the hook does nothing.
"""
import json
import os

import numpy as np
import pytest

import mvos.copula as copula_module

_LOG = os.environ.get("MVOS_DRAW_LOG")
_draws: dict[str, set] = {}
_current = ["(no test)"]


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

    def logged_sample_rows(model, n, rng):
        _record(f"sample_rows {model.label()}")
        return sample_rows(model, n, rng)

    def logged_os_selector(model, n, ranks):
        out = os_selector(model, n, ranks)  # invalid ranks raise before any record
        _record(f"os_selector {model.label()} {_path(model, n, ranks)}")
        return out

    copula_module.sample_rows, copula_module.os_selector = logged_sample_rows, logged_os_selector
    # modules that imported the names before this hook ran
    import mvos.experiment

    mvos.experiment.os_selector = logged_os_selector


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    _current[0] = item.nodeid
    yield
    _current[0] = "(no test)"


def pytest_sessionfinish(session, exitstatus):
    if _LOG:
        with open(_LOG, "w") as f:
            json.dump({test: sorted(tags) for test, tags in sorted(_draws.items())}, f, indent=1)
