"""The socle functional of the Lagrangian Grassmannian LG(n), n = d - 1, by
the Pieri rule, with no quotient ring and no division (Hiller-Boe, *Pieri
formula for SO_{2n+1}/U_n and Sp_n/U_n*, Adv. Math. 62, 1986; Pragacz,
*Algebro-geometric applications of Schur S- and Q-polynomials*, 1991).

H*(LG(n)) has the Schubert basis sigma_lambda, one class per strict
partition lambda inside the staircase rho_n = (n, ..., 1), and u_j = sigma_j
(0 for j > n).  The Pieri rule is

    sigma_j sigma_lambda = sum_mu 2^N(lambda, mu) sigma_mu

over the strict mu inside rho_n with |mu| = |lambda| + j and mu_1 >=
lambda_1 >= mu_2 >= lambda_2 >= ...; N(lambda, mu) counts the connected
components of the shifted skew diagram mu/lambda that do not meet the main
diagonal.  The integral of u^alpha is the coefficient of sigma_rho after its
factors are multiplied into sigma_empty, so it checks each socle-degree
normal form of the form ring by a route that shares nothing with the
division.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import product

from packed import normal_forms
from tautcalc.arakelov import AbelianTautRing, c1_critical_power
from tautcalc.classical import audit_dump, lagrangian_degree, tautological_ring


def off_diagonal_components(lam: tuple, mu: tuple) -> int:
    """The connected components of the shifted skew diagram mu/lambda that
    do not meet the main diagonal; row i of a shifted diagram starts in
    column i."""
    lam = lam + (0,) * (len(mu) - len(lam))
    boxes = {(i, c) for i, (low, high) in enumerate(zip(lam, mu))
             for c in range(i + low, i + high)}
    count = 0
    while boxes:
        stack = [boxes.pop()]
        on_diagonal = False
        while stack:
            i, c = stack.pop()
            on_diagonal |= i == c
            for box in ((i - 1, c), (i + 1, c), (i, c - 1), (i, c + 1)):
                if box in boxes:
                    boxes.remove(box)
                    stack.append(box)
        count += not on_diagonal
    return count


@cache
def pieri(j: int, lam: tuple, n: int) -> dict[tuple, int]:
    """sigma_j sigma_lambda in H*(LG(n)), as {mu: coefficient}."""
    out = {}
    # mu_i lies between lambda_i and lambda_{i-1} (n for i = 1) and below
    # mu_{i-1}, and takes mu_i - lambda_i of the j boxes still left; the
    # one part below the last part of lambda may be 0.
    bounds = list(zip((*lam, 0), (n, *lam)))

    def extend(mu: tuple, left: int):
        if len(mu) == len(bounds):
            if not left:
                mu = mu if mu[-1] else mu[:-1]
                out[mu] = 2 ** off_diagonal_components(lam, mu)
            return
        low, high = bounds[len(mu)]
        if mu:
            high = min(high, mu[-1] - 1)
        for part in range(low, min(high, low + left) + 1):
            extend(mu + (part,), left - part + low)

    extend((), j)
    return out


def pieri_product(state: dict[tuple, int], mono: tuple, n: int) -> dict[tuple, int]:
    """state * u^mono in H*(LG(n)), u_j = sigma_j, for state a class
    {lambda: coefficient} in the Schubert basis."""
    if any(mono[n:]):
        return {}
    for j, exponent in enumerate(mono[:n], 1):
        for _ in range(exponent):
            after: dict[tuple, int] = {}
            for lam, c in state.items():
                for mu, v in pieri(j, lam, n).items():
                    after[mu] = after.get(mu, 0) + c * v
            state = after
    return state


def socle_coefficient(state: dict[tuple, int], n: int) -> int:
    """The integral over LG(n) of the class state: its sigma_rho
    coefficient."""
    return state.get(tuple(range(n, 0, -1)), 0)


def pieri_integral(mono: tuple, n: int) -> int:
    """The integral over LG(n) of u^mono, u_j = sigma_j; 0 unless mono has
    degree n(n+1)/2."""
    return socle_coefficient(pieri_product({(): 1}, mono, n), n)


def assert_socle_normal_forms(ring, d: int, monos) -> int:
    """Each socle-degree monomial's kept normal form c * u_1...u_n (or 0)
    has c times the integral of u_1...u_n as its integral.  Returns how
    many monomials were checked."""
    n, top = d - 1, d * (d - 1) // 2
    socle = (1,) * n + (0,)
    scale = pieri_integral(socle, n)
    assert scale
    kept = normal_forms(ring.aq, monos)
    checked = 0
    for mono in monos:
        if ring.agens.degree_of(mono) != top:
            continue
        nf = dict(kept[mono])
        assert set(nf) <= {socle}, (d, mono)
        assert pieri_integral(mono, n) == nf.get(socle, 0) * scale, (d, mono)
        checked += 1
    return checked


def test_pieri_rule_examples():
    # LG(2): sigma_1^2 = 2 sigma_2, sigma_1 sigma_2 = sigma_21.
    assert pieri(1, (), 2) == {(1,): 1}
    assert pieri(1, (1,), 2) == {(2,): 2}
    assert pieri(1, (2,), 2) == {(2, 1): 1}
    assert pieri(2, (1,), 2) == {(2, 1): 1}
    # LG(3): sigma_2 sigma_1 = 2 sigma_3 + sigma_21.
    assert pieri(2, (1,), 3) == {(3,): 2, (2, 1): 1}


def test_pieri_integral_of_u1_power_is_the_lagrangian_degree():
    for d in range(4, 11):
        n = d - 1
        mono = (n * (n + 1) // 2,) + (0,) * n
        assert pieri_integral(mono, n) == lagrangian_degree(d), d


def test_pieri_matches_every_kept_socle_normal_form_through_d8():
    for d in range(2, 9):
        ring = AbelianTautRing(d)
        c1_critical_power(d, ring)
        checked = assert_socle_normal_forms(ring, d, list(normal_forms(ring.aq)))
        assert checked >= 1
    # At d = 8 the critical power leaves 324 socle-degree normal forms.
    assert checked == 324


def test_pieri_matches_sampled_socle_normal_forms_at_d10():
    # Products u_lambda u_mu of two standard (squarefree) monomials: every
    # exponent is at most 2.
    d, n = 10, 9
    products = [(*alpha, 0) for alpha in product(range(3), repeat=n)
                if sum(j * e for j, e in enumerate(alpha, 1)) == n * (n + 1) // 2]
    monos = random.Random(1729).sample(products, 200)
    assert assert_socle_normal_forms(AbelianTautRing(d), d, monos) == 200


def parse_monomial(name: str, n_gens: int) -> tuple:
    """The exponents of a rendered monomial such as u1^2*u3."""
    exponents = [0] * n_gens
    for factor in name.split("*"):
        gen, _, power = factor.partition("^")
        exponents[int(gen[1:]) - 1] += int(power or 1)
    return tuple(exponents)


def test_pieri_annihilates_every_socle_audit_row():
    # Each socle-degree reduction row m - nf(m) of the classical ring's
    # audit dump integrates to 0 over LG(d - 1).
    rows_checked = 0
    for d in range(2, 8):
        n, top = d - 1, d * (d - 1) // 2
        dump = audit_dump(tautological_ring(d))
        degree = dump["degrees"][top]
        assert degree["degree"] == top
        for row in degree["reduction_rows"].values():
            total = sum(Fraction(c) * pieri_integral(parse_monomial(m, d), n)
                        for m, c in row.items())
            assert total == 0, (d, row)
            rows_checked += 1
    assert rows_checked == 583
