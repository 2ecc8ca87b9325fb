"""The gamma coefficient phi of the critical power by restriction from
LG(d), with no division, no cofactor and no bracket.

Let N = d(d-1)/2.  The division of C1^(N+1), with the lift forgotten, writes
u1^(N+1) = sum_k q_k p_k + q_d u_d in the form generators, and phi is the
normal form of q_d.  In H*(LG(d)) = Q[u_1..u_d]/(p_1..p_d) this says
u1^(N+1) = q_d u_d, and u_d = sigma_d restricts integrals from LG(d) to
LG(d-1): by Pieri, sigma_d sigma_lambda = sigma_(d, lambda) for every lambda
inside rho_(d-1).  So for every m of degree d - 1,

    integral over LG(d-1) of phi * m = integral over LG(d) of u1^(N+1) * m,

and the Poincare pairing of LG(d-1) is perfect, so these numbers determine
phi.  Both sides are computed with the Pieri rule of test_pieri.
"""

from fractions import Fraction

from test_pieri import pieri_product, socle_coefficient
from tautcalc.graded import GradedPoly
from tautcalc.arakelov import AbelianTautRing, c1_critical_power
from tautcalc.classical import lagrangian_degree


def solve(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """The solution of the square system matrix * x = rhs, exactly;
    ValueError if the matrix is singular."""
    size = len(rhs)
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            raise ValueError("singular Gram matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col]
        for r in range(size):
            if r != col and (factor := rows[r][col] / lead[col]):
                rows[r] = [a - factor * b for a, b in zip(rows[r], lead)]
    return [row[size] / row[col] for col, row in enumerate(rows)]


def phi_by_restriction(d: int, ring: AbelianTautRing) -> GradedPoly:
    """phi in the standard monomials of degree N - (d - 1) of ring's form
    ring, solved from its integrals against the standard monomials m of
    degree d - 1.  sigma_1^(N+1) is pushed through Pieri on LG(d) once, and
    each unknown through Pieri on LG(d - 1) once, for every m."""
    n, top = d - 1, d * (d - 1) // 2
    tests = ring.aq.monomial_basis(d - 1)
    unknowns = ring.aq.monomial_basis(top - (d - 1))
    power = pieri_product({(): 1}, (top + 1,), d)
    rhs = [socle_coefficient(pieri_product(power, m, d), d) for m in tests]
    pushed = [pieri_product({(): 1}, b, n) for b in unknowns]
    gram = [[socle_coefficient(pieri_product(state, m, n), n) for state in pushed]
            for m in tests]
    return GradedPoly(ring.agens, dict(zip(unknowns, solve(gram, rhs))))


def test_phi_by_restriction_equals_the_division_phi():
    for d in range(2, 11):
        ring = AbelianTautRing(d)
        assert phi_by_restriction(d, ring) == c1_critical_power(d, ring).phi, d


def test_phi_against_u1_power_integrates_to_the_degree_of_lg_d():
    # With m = u1^(d-1) the right side is the degree of LG(d).
    for d in range(2, 10):
        ring = AbelianTautRing(d)
        phi = c1_critical_power(d, ring).phi
        integral = 0
        for mono, coeff in phi.items():
            assert coeff.is_rational()
            times_u1 = (mono[0] + d - 1, *mono[1:])
            integral += coeff.rational_part() * socle_coefficient(
                pieri_product({(): 1}, times_u1, d - 1), d - 1)
        assert integral == lagrangian_degree(d + 1), d
