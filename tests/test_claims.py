"""The verification suite: run_suite names each claim and gives its verdict."""

import hashlib
import json

import pytest

from braidcong import claims
from braidcong.claims import CLAIMS, SuiteConfig, run_suite
from braidcong.congruence import LimitExceeded


def test_seed_2026_suite_fails_only_the_plain_additivity_claim():
    report = run_suite(SuiteConfig(seed=2026))
    assert [r.claim_id for r in report.results] == [claim_id for claim_id, _ in CLAIMS]
    for r in report.results:
        if r.claim_id == "c10-power-map-structure":
            assert r.status == "fail"
            assert r.computed != r.expected
            assert r.computed["additive_failures"] > 0
            assert "twisted rule" in r.detail
        else:
            assert r.status == "pass", r.claim_id
            assert r.computed == r.expected
    assert not report.passed
    # a claim logs the seed of its generator exactly when it drew from it
    seeds = {r.claim_id[:3]: r.seed for r in report.results if r.seed}
    assert seeds == {t: f"2026:{t}" for t in ("c03", "c04", "c10", "c11", "c12", "c13")}


def test_an_exception_inside_a_claim_propagates(monkeypatch):
    # every claim computes its answer exactly; there is no skipped status
    def over_the_limit(rng):
        raise LimitExceeded("element cap 10 exceeded")

    monkeypatch.setattr(claims, "CLAIMS", (("c06-image-orders", over_the_limit),))
    with pytest.raises(LimitExceeded, match="element cap 10"):
        run_suite(SuiteConfig(claims=("c06",)))


# sha256 of the report body without its timing block, serialized as
# `braidcong verify --json` writes it; a change to any sampled word, to the
# draw stream or to a claim's output moves these
_VERIFY_BODY_SHA256 = {
    0: "2a07f15e43e2d4acfb5d34e2289265bf9da8338eb32c0efb45fb50274244f32d",
    1: "52cb7e6c00149cc8d46050a0e4891eef8dbe5d205149b77792a9d3cdb70db7d7",
    2026: "976347de178a915a8dca37b863a941093ed70e0e0129943a986af93ad6e638ba",
}


@pytest.mark.parametrize("seed", sorted(_VERIFY_BODY_SHA256))
def test_verify_body_is_pinned(seed):
    body = run_suite(SuiteConfig(seed=seed)).to_json_dict()
    del body["timing"]
    digest = hashlib.sha256(json.dumps(body, indent=2, sort_keys=True).encode()).hexdigest()
    assert digest == _VERIFY_BODY_SHA256[seed]
