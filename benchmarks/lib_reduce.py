"""The lib-reduce workload: many reductions against two rings built once.

One process builds ``AbelianTautRing(6)`` and ``LagrangianArithRing(6,
"formal")``, then answers queries.  A query takes random classes x, y of one
ring and computes ``reduce(x*y)`` and ``reduce(reduce(x)*reduce(y))``; the
two must agree (reduction is a ring homomorphism) and the reduced lifted part
must lie on ``zq.monomial_basis``.

The query set is stratified so that its cost hardly depends on the seed:
every (ring, deg x, deg y) with degrees 1..8 occurs the same number of times
per set, in seeded order; the seed deals the monomials and the degrees of
the lower terms from shuffled decks (without replacement) and draws the
coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

RING_D = 6
DEGREES = range(1, 9)
COPIES = 16
NUMERATORS = (-3, -2, -1, 1, 2, 3)
DENOMINATORS = (1, 1, 2, 3)

# Set-up as a user pays it, run in a fresh interpreter.
SETUP_CODE = ("from tautcalc import AbelianTautRing, LagrangianArithRing; "
              f"AbelianTautRing({RING_D}); LagrangianArithRing({RING_D}, 'formal')")


def build_rings() -> dict:
    from tautcalc import AbelianTautRing, LagrangianArithRing
    return {"abelian": AbelianTautRing(RING_D),
            "lagrangian": LagrangianArithRing(RING_D, "formal")}


@dataclass(frozen=True)
class Query:
    ring: str
    x: tuple    # (z, a, g) parts of an ArithClass
    y: tuple


class _Draw:
    """Random classes whose monomials and lower-term degrees come from
    shuffled decks, dealt without replacement, so every query set uses
    nearly the same multiset of them."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict[tuple, list] = {}

    def deal(self, key: tuple, fill):
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(fill())
            self.rng.shuffle(deck)
        return deck.pop()

    def term(self, gens, degree: int):
        from tautcalc import GradedPoly, monomials_of_degree
        mono = self.deal((gens, degree), lambda: monomials_of_degree(gens, degree))
        coeff = Fraction(self.rng.choice(NUMERATORS),
                         self.rng.choice(DENOMINATORS))
        return GradedPoly.monomial(gens, mono, coeff)

    def arith_class(self, ring, degree: int) -> tuple:
        """A lifted monomial of the given degree plus one of a lower or
        equal degree, one form monomial of form degree ``degree - 1`` and,
        in a ring with gamma, a gamma term when the degree allows one."""
        from tautcalc import GradedPoly
        low = self.deal(("low", degree), lambda: range(1, degree + 1))
        z = self.term(ring.zgens, degree) + self.term(ring.zgens, low)
        a = self.term(ring.agens, degree - 1)
        g = GradedPoly.zero(ring.agens)
        if ring.gamma_degree is not None and degree >= ring.gamma_degree:
            g = self.term(ring.agens, degree - ring.gamma_degree)
        return z, a, g


def make_queries(seed: int, rings: dict) -> list[Query]:
    """COPIES queries for every (ring, deg x, deg y), in seeded order."""
    rng = random.Random(seed)
    draw = _Draw(rng)
    specs = [(name, dx, dy) for name in sorted(rings)
             for dx in DEGREES for dy in DEGREES] * COPIES
    rng.shuffle(specs)
    return [Query(name, draw.arith_class(rings[name], dx),
                  draw.arith_class(rings[name], dy))
            for name, dx, dy in specs]


class Checker:
    """Per-ring monomial bases, asked for once through the public API."""

    def __init__(self):
        self._bases: dict[tuple, set] = {}

    def on_basis(self, ring, z) -> bool:
        for mono, _ in z.items():
            degree = ring.zgens.degree_of(mono)
            key = (ring, degree)
            if key not in self._bases:
                self._bases[key] = set(ring.zq.monomial_basis(degree))
            if mono not in self._bases[key]:
                return False
        return True


def run_query(rings: dict, query: Query, checker: Checker) -> tuple[float, bool]:
    """(seconds, answer correct) for one query."""
    from tautcalc import ArithClass
    ring = rings[query.ring]
    x, y = ArithClass(ring, *query.x), ArithClass(ring, *query.y)
    t0 = perf_counter()
    direct = ring.reduce(x * y)
    via = ring.reduce(ring.reduce(x) * ring.reduce(y))
    elapsed = perf_counter() - t0
    return elapsed, direct == via and checker.on_basis(ring, direct.z)


def anchors(rings: dict, reference: dict) -> list[bool]:
    """The critical power and height polynomial at d = 6 from the rings the
    queries use, against the recorded CLI answers.  These catch a reduction
    that is a homomorphism but wrong, such as the zero map."""
    from tautcalc import c1_critical_power, height_polynomial
    r_d = c1_critical_power(RING_D, rings["abelian"]).r.render()
    height = height_polynomial(RING_D, rings["lagrangian"]).height.render()
    return [r_d == reference[f"c1-power --d {RING_D}|text"]["results"]["r_d"],
            height == reference[f"height-poly --d {RING_D}|text"]["results"]
            ["height polynomial"]]
