"""The experiment suite's retry paths."""

from algpaths import suite
from algpaths.errors import NotLocallyClose


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
