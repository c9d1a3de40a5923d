"""The experiment suite's retry paths."""

from algpaths import suite
from algpaths.components import ComponentSignature
from algpaths.errors import NotLocallyClose
from algpaths.paths import MinDegreeResult


def test_exp_local_item_shrinks_the_perturbation_until_the_pair_is_local(monkeypatch):
    deltas, refused = [], []
    partner, connect = suite._perturbed_partner, suite.connect_exp_local

    def perturbed(el, delta, rng, cfg):
        deltas.append(delta)
        return partner(el, delta, rng, cfg)

    def refuse_once(a, b, cfg):
        if not refused:
            refused.append(b)
            raise NotLocallyClose("refused once")
        return connect(a, b, cfg)

    monkeypatch.setattr(suite, "_perturbed_partner", perturbed)
    monkeypatch.setattr(suite, "connect_exp_local", refuse_once)
    report = suite.run_suite(seed=0, samples=0, budget=1)
    item = next(i for i in report["items"] if i["name"] == "exp-local")
    assert item["passed"] and item["metrics"]["pairs"] == 5
    # the first pair is drawn again a quarter as far; the next starts over
    assert deltas[:3] == [0.1, 0.1 / 4.0, 0.1]


def _item_named(report, name):
    return next(i for i in report["items"] if i["name"] == name)


def test_mindeg_item_fails_when_a_pair_fails_at_every_degree(monkeypatch):
    # the rank-one-negative item calls the search too, and reads its residual floor
    monkeypatch.setattr(suite, "min_degree_search",
                        lambda *args, **kwargs: MinDegreeResult(path=None, residual_by_degree={1: 1.0}))
    report = suite.run_suite(seed=0, samples=0, budget=1)
    item = _item_named(report, "mindeg")
    assert not item["passed"] and not report["all_passed"]
    assert item["detail"] == "pair 0 failed at every degree <= 3" and item["metrics"] == {"pair": 0}


def test_isolation_item_fails_when_a_scalar_is_not_isolated(monkeypatch):
    monkeypatch.setattr(suite, "is_isolated", lambda el, cfg: False)
    item = _item_named(suite.run_suite(seed=0, samples=0, budget=1), "isolation")
    assert not item["passed"] and item["detail"] == "scalar for root index 0 not isolated"


def test_isolation_item_fails_when_a_non_scalar_sample_reads_as_scalar(monkeypatch):
    monkeypatch.setattr(suite, "signature", lambda el, cfg: ComponentSignature((el.dim, 0, 0)))
    item = _item_named(suite.run_suite(seed=0, samples=0, budget=1), "isolation")
    assert not item["passed"] and item["detail"] == "non-scalar sample 0 flagged isolated"
