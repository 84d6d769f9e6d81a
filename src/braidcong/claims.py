"""The one-shot verification suite behind the verify command.

Each claim is an executable check of one verified statement about the
congruence and crystallographic structures, with fixed parameters and a
deterministic derived seed.  A claim function takes only a generator, which
run_suite seeds from the suite seed and the claim's tag (the id up to its
first hyphen); the report gives that seed exactly when the claim drew from
the generator.  A claim function returns what it computed and what the
statement predicts; run_suite names the result from CLAIMS and passes it
exactly when computed == expected.  Every claim has fixed parameters small
enough to compute exactly, so each result is a pass or a fail; an exception
raised inside a claim is a bug and propagates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from random import Random
from typing import Callable

from . import _EXPORTS, __version__
from .burau import burau_matrix, burau_matrix_mod, check_transvection_model, order_mod
from .congruence import (
    abelianization,
    conjugation_action,
    enumerate_image,
    image_center,
    is_member,
)
from .cryst import (
    CrystElement,
    additivity_failures,
    in_power_image,
    normal_form,
    power_endomorphism,
    power_map_is_homomorphism,
    power_map_scales_lattice,
    power_quotient_class,
)
from .matrices import check_integer, identity
from .words import (
    BraidWord,
    LinkingVector,
    full_twist,
    permutation,
    pure_generator,
    random_pure_word,
    random_word,
    torelli_chain,
)

__all__ = list(_EXPORTS["claims"])


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 2026
    claims: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_integer("seed", self.seed)
        if self.claims is None:
            return
        if isinstance(self.claims, str):
            raise ValueError(f"claims must be a tuple of ids, got the string {self.claims!r}")
        if "" in self.claims:
            raise ValueError(f"empty claim id in {list(self.claims)}")
        if not any(self.selected(c) for c, _ in CLAIMS):
            raise ValueError(f"no claim matches {list(self.claims)}")

    def selected(self, claim_id: str) -> bool:
        if self.claims is None:
            return True
        return any(claim_id == c or claim_id.startswith(c) for c in self.claims)


@dataclass
class ClaimResult:
    claim_id: str
    description: str
    parameters: dict
    status: str
    computed: object
    expected: object
    detail: str = ""
    seed: str = ""
    runtime_ms: float = 0.0


@dataclass
class VerificationReport:
    version: str
    seed: int
    results: tuple[ClaimResult, ...]
    total_ms: float = 0.0
    generated_at: str = ""

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_json_dict(self) -> dict:
        """Deterministic report body plus a separate timing block."""
        return {
            "meta": {
                "version": self.version,
                "seed": self.seed,
                "claims_selected": [r.claim_id for r in self.results],
            },
            "claims": [
                {
                    "id": r.claim_id,
                    "description": r.description,
                    "parameters": r.parameters,
                    "status": r.status,
                    "computed": r.computed,
                    "expected": r.expected,
                    "detail": r.detail,
                    "seed": r.seed,
                }
                for r in self.results
            ],
            "timing": {
                "total_ms": round(self.total_ms, 3),
                "per_claim_ms": {
                    r.claim_id: round(r.runtime_ms, 3) for r in self.results
                },
                "generated_at": self.generated_at,
            },
        }


def _claim_generator_powers(rng: Random) -> dict:
    failures = []
    checked = 0
    for n in range(3, 9):
        for m in range(2, 8):
            for i in range(1, n):
                checked += 1
                if not is_member(BraidWord(n, (i,) * m), m):
                    failures.append([n, m, i])
    return dict(
        description="m-th powers of the generators lie in the level-m subgroup",
        parameters={"n": "3..8", "m": "2..7"},
        computed={"checked": checked, "failures": failures},
        expected={"checked": checked, "failures": []},
    )


def _full_twist_order_table() -> dict[tuple[int, int], int]:
    table: dict[tuple[int, int], int] = {}
    for n in (3, 5, 7):
        table[(n, 2)] = 1
        for m in range(3, 8):
            table[(n, m)] = 2
    for n in (4, 6):
        for m in (3, 5, 7):
            table[(n, m)] = m
        for m in (4, 6):
            table[(n, m)] = m // 2
    return table


def _claim_full_twist_orders(rng: Random) -> dict:
    expected = _full_twist_order_table()
    computed = {}
    for (n, m) in sorted(expected):
        computed[(n, m)] = order_mod(burau_matrix_mod(full_twist(n), m), m)
    mismatches = {k: (computed[k], expected[k]) for k in expected if computed[k] != expected[k]}
    return dict(
        description="multiplicative order of the full twist image mod m",
        parameters={"n": "3..7", "m": "2..7 per parity table"},
        computed={f"{n},{m}": v for (n, m), v in sorted(computed.items())},
        expected={f"{n},{m}": v for (n, m), v in sorted(expected.items())},
        detail="" if not mismatches else f"mismatches: {sorted(mismatches)}",
    )


def _claim_level_two_purity(rng: Random) -> dict:
    words = 0
    failures = []
    for n in range(3, 7):
        for _ in range(500):
            w = random_word(rng, n, 40)
            words += 1
            if is_member(w, 2) != permutation(w).is_identity():
                failures.append([n, list(w.letters)])
    return dict(
        description="level-2 membership coincides with having trivial permutation",
        parameters={"n": "3..6", "words_per_n": 500, "max_length": 40},
        computed={"checked": words, "failures": failures},
        expected={"checked": words, "failures": []},
    )


def _claim_pure_squares_level_four(rng: Random) -> dict:
    failures = []
    for n in (3, 4, 5):
        for _ in range(200):
            w = random_pure_word(rng, n, factors=rng.randint(1, 4))
            if not is_member(w * w, 4):
                failures.append([n, list(w.letters)])
    return dict(
        description="squares of pure words lie in the level-4 subgroup",
        parameters={"n": "3..5", "words_per_n": 200},
        computed={"failures": failures},
        expected={"failures": []},
    )


def _claim_torelli_chains(rng: Random) -> dict:
    cases = [(3, 2), (4, 2), (5, 2), (5, 4), (6, 4), (7, 4)]
    bad = [
        [n, k]
        for (n, k) in cases
        if burau_matrix(torelli_chain(n, k)) != identity(n)
    ]
    return dict(
        description="even chain twist powers act trivially over the integers",
        parameters={"cases": [f"{n},{k}" for n, k in cases]},
        computed={"nontrivial": bad},
        expected={"nontrivial": []},
    )


def _claim_image_orders(rng: Random) -> dict:
    def sl2_order(p: int) -> int:
        return p * (p - 1) * (p + 1)

    expected = {
        "3,2": math.factorial(3),
        "4,2": math.factorial(4),
        "5,2": math.factorial(5),
        "3,3": sl2_order(3),
        "3,5": sl2_order(5),
    }
    computed = {}
    for key in sorted(expected):
        n, m = (int(t) for t in key.split(","))
        computed[key] = enumerate_image(n, m).size
    return dict(
        description="orders of the finite mod-m images",
        parameters={"cases": sorted(expected)},
        computed=computed,
        expected=expected,
    )


def _claim_abelianization_ranks(rng: Random) -> dict:
    expected = {"3,2": [3, []], "3,3": [4, []], "3,4": [6, []]}
    computed = {}
    for key in sorted(expected):
        n, m = (int(t) for t in key.split(","))
        ab = abelianization(n, m)
        computed[key] = [ab.free_rank, list(ab.invariant_factors)]
    return dict(
        description="free ranks and torsion of the level-m subgroup abelianizations",
        parameters={"cases": sorted(expected)},
        computed=computed,
        expected=expected,
    )


def _claim_conjugation_action(rng: Random) -> dict:
    twist = full_twist(3)
    results = {}
    for m in (3, 4):
        ab = abelianization(3, m)
        results[f"full_twist_mod_{m}_is_identity"] = conjugation_action(ab, twist).is_identity()
    ab2 = abelianization(3, 2)
    nontrivial = []
    for coset in range(2, ab2.table.size + 1):
        rep = ab2.table.transversal(coset)
        act = conjugation_action(ab2, rep)
        nontrivial.append(not act.is_identity())
    results["level2_nonsubgroup_reps_act_nontrivially"] = all(nontrivial)
    results["level2_cosets_checked"] = ab2.table.size
    return dict(
        description="conjugation acts trivially for the central twist and faithfully at level 2",
        parameters={"levels": [2, 3, 4]},
        computed=results,
        expected={
            "full_twist_mod_3_is_identity": True,
            "full_twist_mod_4_is_identity": True,
            "level2_nonsubgroup_reps_act_nontrivially": True,
            "level2_cosets_checked": 6,
        },
    )


def _claim_center_holonomy(rng: Random) -> dict:
    group = enumerate_image(3, 3)
    center = image_center(group)
    twist_mat = burau_matrix_mod(full_twist(3), 3)
    nontrivial = [k for k in center if k != 0]
    twist_is_central = (
        len(nontrivial) == 1 and group.matrix(nontrivial[0]) == twist_mat
    )
    holonomy = group.size // len(center)
    computed = {
        "center_order": len(center),
        "full_twist_is_the_nontrivial_central_element": twist_is_central,
        "holonomy_order": holonomy,
    }
    expected = {
        "center_order": 2,
        "full_twist_is_the_nontrivial_central_element": True,
        "holonomy_order": 12,
    }
    return dict(
        description="center of the level-3 image and the holonomy quotient order",
        parameters={"n": 3, "m": 3},
        computed=computed,
        expected=expected,
    )


def _random_element(rng: Random, n: int) -> CrystElement:
    return normal_form(random_word(rng, n, 12))


def _claim_power_map_structure(rng: Random) -> dict:
    cases = [(3, 3), (3, 5), (4, 3), (5, 3)]
    computed: dict[str, object] = {
        f"homomorphism_{n}_{m}": power_map_is_homomorphism(n, m) for (n, m) in cases
    }
    computed["lattice_generators_scale_by_m"] = all(
        power_map_scales_lattice(n, m) for (n, m) in cases
    )
    classes = set()
    for a in range(3):
        for b in range(3):
            for c in range(3):
                vec = LinkingVector(3, (a, b, c))
                classes.add(power_quotient_class(3, 3, CrystElement.lattice(vec)))
    computed["lattice_class_count_3_3"] = len(classes)
    pairs = ((_random_element(rng, 3), _random_element(rng, 3)) for _ in range(500))
    additive_failures = additivity_failures(3, 3, pairs)
    computed["additive_pairs_checked"] = 500
    computed["additive_failures"] = len(additive_failures)
    detail = ""
    if additive_failures:
        lhs, rhs = additive_failures[0]
        detail = (
            "reduction is not additive on the sampled pairs; first counterexample "
            f"lhs={list(lhs)} rhs={list(rhs)}; the map obeys the twisted rule "
            "class(ab) = pair_action(perm(b)) . class(a) + class(b) instead"
        )
    expected = {
        "homomorphism_3_3": True,
        "homomorphism_3_5": True,
        "homomorphism_4_3": True,
        "homomorphism_5_3": True,
        "lattice_generators_scale_by_m": True,
        "lattice_class_count_3_3": 27,
        "additive_pairs_checked": 500,
        "additive_failures": 0,
    }
    return dict(
        description="power endomorphism relations, lattice scaling, and quotient classes",
        parameters={"cases": [f"{n},{m}" for n, m in cases], "additive_pairs": 500},
        computed=computed,
        expected=expected,
        detail=detail,
    )


def _claim_cohopf_witness(rng: Random) -> dict:
    sigma_class = normal_form(BraidWord(3, (1,)))
    witness = not in_power_image(3, 3, sigma_class)
    injective = True
    for _ in range(1000):
        x = _random_element(rng, 3)
        y = _random_element(rng, 3)
        if (power_endomorphism(3, 3, x) == power_endomorphism(3, 3, y)) != (x == y):
            injective = False
            break
    computed = {"generator_class_outside_image": witness, "injective_on_pairs": injective}
    expected = {"generator_class_outside_image": True, "injective_on_pairs": True}
    return dict(
        description="the power map is injective but misses the generator class",
        parameters={"n": 3, "m": 3, "pairs": 1000},
        computed=computed,
        expected=expected,
    )


def _claim_normal_form_soundness(rng: Random) -> dict:
    mult_failures = 0
    for _ in range(1000):
        n = rng.randint(3, 6)
        u = random_word(rng, n, 14)
        v = random_word(rng, n, 14)
        if normal_form(u * v) != normal_form(u) * normal_form(v):
            mult_failures += 1
    commutator_failures = 0
    for _ in range(200):
        n = rng.randint(3, 6)
        p = random_pure_word(rng, n, factors=2)
        q = random_pure_word(rng, n, factors=2)
        commutator = p * q * p.inverse() * q.inverse()
        if not normal_form(commutator).is_identity():
            commutator_failures += 1
    conjugation_failures = 0
    for _ in range(500):
        n = rng.randint(3, 6)
        g = random_word(rng, n, 10)
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        observed = normal_form(g * pure_generator(n, i, j) * g.inverse())
        pi = permutation(g.inverse())
        want = CrystElement.lattice(LinkingVector.unit(n, pi(i), pi(j)))
        if observed != want:
            conjugation_failures += 1
    computed = {
        "multiplicativity_failures": mult_failures,
        "pure_commutator_failures": commutator_failures,
        "conjugation_rule_failures": conjugation_failures,
    }
    expected = {
        "multiplicativity_failures": 0,
        "pure_commutator_failures": 0,
        "conjugation_rule_failures": 0,
    }
    return dict(
        description="normal form is multiplicative, kills pure commutators, and matches the pair action",
        parameters={"pairs": 1000, "commutators": 200, "conjugations": 500},
        computed=computed,
        expected=expected,
    )


def _claim_transvection_agreement(rng: Random) -> dict:
    computed = {}
    for (n, m) in [(3, 2), (3, 3), (5, 2), (5, 3)]:
        computed[f"{n},{m}"] = check_transvection_model(n, m, seed=rng.randrange(2**32))
    expected = {key: True for key in computed}
    return dict(
        description="chain transvection model matches the mod-m kernel on samples",
        parameters={"cases": sorted(computed), "samples": 200},
        computed=computed,
        expected=expected,
    )


CLAIMS: tuple[tuple[str, Callable[[Random], dict]], ...] = (
    ("c01-generator-power-kernel", _claim_generator_powers),
    ("c02-full-twist-order", _claim_full_twist_orders),
    ("c03-level-two-is-pure", _claim_level_two_purity),
    ("c04-pure-squares-level-four", _claim_pure_squares_level_four),
    ("c05-torelli-chain-kernel", _claim_torelli_chains),
    ("c06-image-orders", _claim_image_orders),
    ("c07-abelianization-ranks", _claim_abelianization_ranks),
    ("c08-conjugation-action", _claim_conjugation_action),
    ("c09-center-holonomy", _claim_center_holonomy),
    ("c10-power-map-structure", _claim_power_map_structure),
    ("c11-cohopf-witness", _claim_cohopf_witness),
    ("c12-normal-form-soundness", _claim_normal_form_soundness),
    ("c13-transvection-agreement", _claim_transvection_agreement),
)


def run_suite(config: SuiteConfig | None = None) -> VerificationReport:
    """Run the configured claims and assemble the verification report."""
    config = config or SuiteConfig()
    results = []
    started = time.perf_counter()
    for claim_id, runner in CLAIMS:
        if not config.selected(claim_id):
            continue
        t0 = time.perf_counter()
        seed = f"{config.seed}:{claim_id.partition('-')[0]}"
        rng = Random(seed)
        fresh = rng.getstate()
        fields = runner(rng)
        status = "pass" if fields["computed"] == fields["expected"] else "fail"
        result = ClaimResult(claim_id=claim_id, status=status, **fields)
        result.runtime_ms = (time.perf_counter() - t0) * 1000.0
        if rng.getstate() != fresh:
            result.seed = seed
        results.append(result)
    total_ms = (time.perf_counter() - started) * 1000.0
    return VerificationReport(
        version=__version__,
        seed=config.seed,
        results=tuple(results),
        total_ms=total_ms,
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
