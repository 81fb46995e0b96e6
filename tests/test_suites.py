"""Suite runner behavior: reports, failure serialization, the grouping checks."""

import json
import re

import numpy as np
import pytest

from tarskilab import SUITES, SuiteReport, build_geometry, covering_set, run_suite
from tarskilab.suites import suite_covering, suite_embedding, suite_solver, value_tables


def test_suite_registry_complete():
    assert set(SUITES) == {
        "geometry", "composition", "hilbert", "symmetrize",
        "embedding", "covering", "solver",
    }


def test_run_suite_unknown_name():
    with pytest.raises(KeyError, match="bogus"):
        run_suite("bogus")


def test_report_json_excludes_wall_time_and_sorts_failures():
    rep = SuiteReport(suite="demo")
    rep.check("b/check", False, "second")
    rep.check("a/check", False, "first")
    rep.check("c/check", True)
    rep.finish(t0=0.0)
    assert rep.checks_run == 3
    assert [f[0] for f in rep.failures] == ["a/check", "b/check"]
    obj = json.loads(rep.to_json())
    assert set(obj) == {"suite", "checks_run", "failures"}


def _dense_covering_failures(n, cover):
    """Pairwise rule: V covers p when every two instances that differ at p
    also differ on V.  Maps each uncovered point to its first bad pair."""
    geo = build_geometry(n)
    params, enc = value_tables(geo)
    out = {}
    for x in range(1, geo.n_prime + 1):
        for y in range(1, geo.n_prime + 1):
            col = enc[:, x - 1, y - 1]
            bad = col[:, None] != col[None, :]
            for vx, vy in cover(geo, (x, y)):
                cv = enc[:, vx - 1, vy - 1]
                bad &= cv[:, None] == cv[None, :]
            if bad.any():
                r, s = map(int, np.argwhere(bad)[0])
                out[(x, y)] = json.loads(json.dumps([params[r], params[s]]))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_covering_grouping_agrees_with_pairwise_rule(n):
    rep = suite_covering(n=n, sample=0)
    assert rep.checks_run == build_geometry(n).n_prime ** 2
    assert rep.failures == []
    assert _dense_covering_failures(n, covering_set) == {}


@pytest.mark.parametrize("n", [2, 3])
def test_covering_grouping_reports_the_pairwise_counterexample(monkeypatch, n):
    import tarskilab.suites as suites_mod

    def drop_first(geo, p):
        return covering_set(geo, p)[1:]

    monkeypatch.setattr(suites_mod, "covering_set", drop_first)
    rep = suites_mod.suite_covering(n=n, sample=0)
    dense = _dense_covering_failures(n, drop_first)
    assert rep.failures and len(rep.failures) == len(dense)
    geo = build_geometry(n)
    params, enc = value_tables(geo)
    index = {(tuple(C), i): k for k, (C, i) in enumerate(params)}
    for check_id, counterexample in rep.failures:
        p = tuple(int(t) for t in re.search(r"point=\((\d+), (\d+)\)", check_id).groups())
        payload = json.loads(counterexample)
        assert payload["V"] == [list(v) for v in drop_first(geo, p)]
        assert payload["pair"] == dense[p]  # the same first pair as the dense rule
        r, s = (index[(tuple(C), i)] for C, i in payload["pair"])
        assert enc[r, p[0] - 1, p[1] - 1] != enc[s, p[0] - 1, p[1] - 1]
        for vx, vy in payload["V"]:
            assert enc[r, vx - 1, vy - 1] == enc[s, vx - 1, vy - 1]


def test_covering_failures_carry_replayable_counterexample(monkeypatch):
    import tarskilab.suites as suites_mod

    monkeypatch.setattr(suites_mod, "covering_set", lambda geo, p: [])
    rep = suites_mod.suite_covering(n=2)
    assert rep.failures  # empty sets cannot cover anything
    check_id, counterexample = rep.failures[0]
    assert check_id.startswith("covering/n=2/point=")
    payload = json.loads(counterexample)
    assert payload["V"] == []
    assert len(payload["pair"]) == 2  # the differing instance parameters


def test_embedding_failure_path(monkeypatch):
    import tarskilab.suites as suites_mod

    # corrupt the correspondence: swap two images
    real = suites_mod.nos_correspondence

    def crooked(geo, C, i):
        out = bytearray(real(geo, C, i))
        out[0], out[-1] = out[-1], out[0]
        return bytes(out)

    monkeypatch.setattr(suites_mod, "nos_correspondence", crooked)
    with pytest.raises(Exception):
        # swapped strings are no longer valid instances; the suite surfaces it
        suites_mod.suite_embedding(n=2)


def test_solver_suite_counts():
    rep = suite_solver(n=2)
    assert rep.checks_run == 24 * 5
    assert rep.ok
