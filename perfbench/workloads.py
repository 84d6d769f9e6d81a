"""The benchmark's workloads: seeded job lists with reference answers.

Each workload is built from a braidcong import and a seed.  jobs() returns the
job list of one pass; every job returns its answer, and its check compares
the answer with a reference that does not depend on a basis or numbering the
library may change.  Jobs look their functions up on the module at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[], object]
    # returns None when the answer is right, else what is wrong with it
    check: Callable[[object], str | None]
    # solve times of the answer's named parts, in seconds (verify: per claim)
    parts: Callable[[object], dict[str, float]] | None = None


def random_letters(rng: Random, n: int, length: int) -> tuple[int, ...]:
    """A freely reduced word of exactly the given length."""
    letters: list[int] = []
    while len(letters) < length:
        letter = rng.choice((1, -1)) * rng.randint(1, n - 1)
        if not letters or letters[-1] != -letter:
            letters.append(letter)
    return tuple(letters)


def determinant(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _failures(problems: list[str]) -> str | None:
    return "; ".join(problems) or None


class Workload:
    name = ""
    # label of the job reported as largest_job_s
    largest = ""

    def __init__(self, bc, seed: int) -> None:
        self.bc = bc
        self.seed = seed

    def jobs(self) -> list[Job]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError


class Verify(Workload):
    """Full verification-suite passes, the command users run."""

    name = "verify"
    largest = "suite"
    expected_fail = "c10-power-map-structure"

    def jobs(self) -> list[Job]:
        config = self.bc.claims.SuiteConfig(seed=self.seed)
        return [Job("suite", partial(self._suite, config), self._check, self._claim_seconds)]

    def _suite(self, config):
        return self.bc.claims.run_suite(config)

    def warm_up(self) -> None:
        self._suite(self.bc.claims.SuiteConfig(seed=self.seed, claims=("c05",)))

    def _check(self, report) -> str | None:
        ids = [claim_id for claim_id, _ in self.bc.claims.CLAIMS]
        got = {r.claim_id: r.status for r in report.results}
        problems = []
        if list(got) != ids:
            problems.append(f"claims run {list(got)} instead of {ids}")
        for claim_id, status in got.items():
            want = "fail" if claim_id == self.expected_fail else "pass"
            if status != want:
                problems.append(f"{claim_id} returned {status!r}, expected {want!r}")
        return _failures(problems)

    def _claim_seconds(self, report) -> dict[str, float]:
        return {r.claim_id: r.runtime_ms / 1000.0 for r in report.results}


# (n, m, image order, center order)
IMAGE_CASES = ((4, 3, 648, 3), (4, 4, 1536, 2), (6, 2, 720, 1), (4, 5, 15000, 5))


class Image(Workload):
    """Image BFS, center and coset tree; no SNF and no crystallographic work."""

    name = "image"
    largest = "image(4,5)"

    def __init__(self, bc, seed: int) -> None:
        super().__init__(bc, seed)
        rng = Random(f"image:{seed}")
        # probe words for the coset-table check, outside the timed jobs
        self.probes = {(n, m): random_letters(rng, n, 24) for n, m, _, _ in IMAGE_CASES}

    def jobs(self) -> list[Job]:
        return [
            Job(f"image({n},{m})", partial(self._solve, n, m), partial(self._check, n, m, order, center))
            for n, m, order, center in IMAGE_CASES
        ]

    def _solve(self, n: int, m: int):
        congruence = self.bc.congruence
        group = congruence.enumerate_image(n, m)
        center = congruence.image_center(group)
        table = congruence.coset_table(n, m)
        return group, center, table

    def warm_up(self) -> None:
        self._solve(3, 3)

    def _check(self, n: int, m: int, order: int, center_order: int, answer) -> str | None:
        group, center, table = answer
        problems = []
        if group.size != order:
            problems.append(f"image order {group.size}, expected {order}")
        if len(center) != center_order or 0 not in center:
            problems.append(f"center {center[:8]} of order {len(center)}, expected {center_order}")
        if table.size != order:
            problems.append(f"{table.size} cosets, expected {order}")
        w = self.bc.BraidWord(n, self.probes[(n, m)])
        coset = table.trace(1, w)
        if not self.bc.congruence.is_member(w * table.transversal(coset).inverse(), m):
            problems.append(f"probe word does not end in the coset of its transversal {coset}")
        return _failures(problems)


# (n, m, free rank); every case is torsion free
ABELIAN_CASES = ((3, 4, 6), (4, 2, 6), (3, 6, 14))


class Abelian(Workload):
    """Schreier rewriting, dense SNF and conjugation actions on tiny images."""

    name = "abelian"
    largest = "abelian(3,6)"

    def __init__(self, bc, seed: int) -> None:
        super().__init__(bc, seed)
        rng = Random(f"abelian:{seed}")
        self.words = {(n, m): random_letters(rng, n, 12) for n, m, _ in ABELIAN_CASES}

    def jobs(self) -> list[Job]:
        return [
            Job(f"abelian({n},{m})", partial(self._solve, n, m), partial(self._check, rank))
            for n, m, rank in ABELIAN_CASES
        ]

    def _solve(self, n: int, m: int):
        congruence = self.bc.congruence
        ab = congruence.abelianization(n, m)
        twist = congruence.conjugation_action(ab, self.bc.full_twist(n))
        action = congruence.conjugation_action(ab, self.bc.BraidWord(n, self.words[(n, m)]))
        return ab, twist, action

    def warm_up(self) -> None:
        congruence = self.bc.congruence
        ab = congruence.abelianization(3, 3)
        congruence.conjugation_action(ab, self.bc.full_twist(3))

    def _check(self, rank: int, answer) -> str | None:
        ab, twist, action = answer
        problems = []
        if ab.free_rank != rank or ab.invariant_factors:
            problems.append(
                f"free rank {ab.free_rank} with torsion {ab.invariant_factors}, expected {rank} and none"
            )
        if not twist.is_identity():
            problems.append("the full twist acts nontrivially")
        if len(action.matrix) != rank:
            problems.append(f"action matrix of size {len(action.matrix)}, expected {rank}")
        elif abs(determinant(action.matrix)) != 1:
            problems.append("the word's action is not invertible over the integers")
        if action.torsion_leak:
            problems.append(f"torsion leak {action.torsion_leak[:4]}")
        return _failures(problems)


# orders k in 2..6 that have torsion elements, per strand count
TORSION_ORDERS = {5: (3, 5), 6: (3, 5)}
# half-width of the seeded lattice conjugators' coordinates
COORDINATE_SCALE = 1000
# accepted relative distance of a conjugator's word work from the target
WORK_TOLERANCE = 0.01


class Cryst(Workload):
    """Torsion search, then the group law on conjugates with coordinates near 10^3.

    A conjugate is L * t * L^-1 for a torsion element t and a seeded lattice
    element L.  Its vector, and those of its powers, are affine in L's vector,
    and the word work of element_order is their weighted size (weight: the
    length of the pair's standard pure generator word).  The seed draws L
    until that work is within WORK_TOLERANCE of a target fixed per (n, k), so
    every seed asks for the same amount of work.
    """

    name = "cryst"
    largest = "orders(6)"

    def __init__(self, bc, seed: int) -> None:
        super().__init__(bc, seed)
        rng = Random(f"cryst:{seed}")
        self.torsion = {}
        self.conjugators = {}
        self.predicted = {}
        self.conjugates = {}
        for n, orders in TORSION_ORDERS.items():
            for k in orders:
                t = bc.cryst.torsion_search(n, k)
                conjugator, vec = self._conjugator(n, k, t, rng)
                self.torsion[(n, k)] = t
                self.conjugators[(n, k)] = conjugator
                self.predicted[(n, k)] = vec

    def _conjugator(self, n: int, k: int, t, rng: Random):
        bc = self.bc
        lattice = bc.CrystElement.lattice
        pairs = bc.pair_list(n)
        weights = [len(bc.pure_generator(n, p.i, p.j)) for p in pairs]
        # vec(L t^j L^-1) = vec(t^j) + maps[j] . vec(L), with maps[j] from unit conjugators
        powers = [t**j for j in range(1, k)]
        maps = []
        for p in powers:
            columns = []
            for pair in pairs:
                unit = lattice(bc.LinkingVector.unit(n, pair.i, pair.j))
                image = (unit * p * unit.inverse()).vec.coords
                columns.append([a - b for a, b in zip(image, p.vec.coords)])
            maps.append((p.vec.coords, columns))

        def vectors(v):
            return [
                [base[r] + sum(col[r] * x for col, x in zip(columns, v)) for r in range(len(v))]
                for base, columns in maps
            ]

        def work(v) -> int:
            # element_order multiplies c^j by c for j < k; every product
            # normalizes a word as long as both representatives together
            sizes = [sum(w * abs(x) for w, x in zip(weights, vec)) for vec in vectors(v)]
            return (k + 1) * sizes[0] + sum(sizes[1:])

        def draw(source: Random):
            return [source.randint(-COORDINATE_SCALE, COORDINATE_SCALE) for _ in pairs]

        calibration = Random(f"cryst-target:{n}:{k}")
        target = statistics.median(work(draw(calibration)) for _ in range(63))
        for _ in range(100_000):
            v = draw(rng)
            if abs(work(v) - target) <= WORK_TOLERANCE * target:
                return lattice(bc.LinkingVector(n, tuple(v))), tuple(vectors(v)[0])
        raise RuntimeError(f"no conjugator near the work target for ({n}, {k})")

    def jobs(self) -> list[Job]:
        jobs = [
            Job(f"torsion({n})", partial(self._torsion, n), partial(self._check_torsion, n))
            for n in TORSION_ORDERS
        ]
        for n in TORSION_ORDERS:
            jobs += [
                Job(f"conjugates({n})", partial(self._conjugates, n), partial(self._check_conjugates, n)),
                Job(f"orders({n})", partial(self._orders, n), partial(self._check_orders, n)),
                Job(f"inverses({n})", partial(self._inverses, n), self._check_inverses),
                Job(f"power({n})", partial(self._power, n), partial(self._check_power, n)),
            ]
        return jobs

    def warm_up(self) -> None:
        t = self.torsion[(5, 3)]
        self.bc.cryst.element_order(t * t)

    def _cases(self, n: int):
        return [(n, k) for k in TORSION_ORDERS[n]]

    def _torsion(self, n: int):
        return {k: self.bc.cryst.torsion_search(n, k) for k in range(2, 7)}

    def _check_torsion(self, n: int, found) -> str | None:
        problems = []
        for k, t in found.items():
            if (t is not None) != (k in TORSION_ORDERS[n]):
                problems.append(f"torsion of order {k} on {n} strands: found {t}")
            elif t is not None:
                if t != self.torsion[(n, k)]:
                    problems.append(f"order-{k} element differs between runs")
                if t.perm.order() != k or not (t**k).is_identity():
                    problems.append(f"found element of claimed order {k} is not of that order")
        return _failures(problems)

    def _conjugates(self, n: int):
        self.conjugates = {}
        for case in self._cases(n):
            g = self.conjugators[case]
            self.conjugates[case] = g * self.torsion[case] * g.inverse()
        return dict(self.conjugates)

    def _check_conjugates(self, n: int, conjugates) -> str | None:
        problems = [
            f"conjugate for {case} has vector off the affine prediction"
            for case in self._cases(n)
            if conjugates[case].vec.coords != self.predicted[case]
            or conjugates[case].perm != self.torsion[case].perm
        ]
        return _failures(problems)

    def _orders(self, n: int):
        return {case: self.bc.cryst.element_order(self.conjugates[case]) for case in self._cases(n)}

    def _check_orders(self, n: int, orders) -> str | None:
        return _failures(
            [f"order of the {case} conjugate is {orders[case]}" for case in orders if orders[case] != case[1]]
        )

    def _inverses(self, n: int):
        return {
            case: (self.conjugates[case], self.conjugates[case].inverse(), self.conjugates[case] ** -case[1])
            for case in self._cases(n)
        }

    def _check_inverses(self, answers) -> str | None:
        problems = []
        for case, (c, inv, negative) in answers.items():
            if not (c * inv).is_identity():
                problems.append(f"{case}: a * a.inverse() is not the identity")
            if not negative.is_identity():
                problems.append(f"{case}: a ** -{case[1]} is not the identity")
        return _failures(problems)

    def _power(self, n: int):
        return {
            case: self.bc.cryst.power_endomorphism(n, 3, self.conjugates[case])
            for case in self._cases(n)
        }

    def _check_power(self, n: int, images) -> str | None:
        problems = []
        for case, image in images.items():
            # cubing every letter keeps each transposition, so the permutation
            if image.perm != self.conjugates[case].perm:
                problems.append(f"{case}: power image moved the permutation")
            if not self.bc.cryst.in_power_image(n, 3, image):
                problems.append(f"{case}: power image is outside the power image")
        return _failures(problems)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Verify, Image, Abelian, Cryst)
}
