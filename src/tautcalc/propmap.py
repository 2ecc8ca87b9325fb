"""The proportionality map from the Lagrangian ring with exact harmonic
coefficients to the abelian ring: its degreewise construction as one exact
linear system, the relation sweep that re-checks a constructed map, and the
Fredholm-alternative certificate when no map exists.

Only ``hmap-check`` and ``verify`` run this module, so it loads on first
use: they import it, and so do the package's lazy table and
``arakelov.proportionality_map_check``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .scalars import ONE, Scalar, ZERO, harmonic
from .graded import GradedPoly, Monomial
from .quotient import ReductionError, _axpy
from .charclasses import ClassVector, pontrjagin_from_c
from .arakelov import AbelianTautRing, ArithClass, _ring_for


class MapCertificate(NamedTuple):
    """Fredholm-alternative certificate that no proportionality map exists.

    The map's conditions c(x) are affine in its unknowns x (the odd
    correction forms and the constant-form scale e0), since the form ideal
    has square zero.  The solver's system is M x = b with b = -c(0); the
    rational weights ``y`` on the condition coefficients, labelled by
    (condition degree, form monomial), satisfy yᵀM = 0 while
    ``value`` = yᵀb is not 0.  So yᵀc(x) = -value for every x, and no
    choice of unknowns makes every condition vanish.
    """
    d: int
    y: dict[tuple[int, Monomial], Fraction]
    value: Scalar


class ProportionalityReport(NamedTuple):
    d: int
    constructed: bool                     # a compatible map was found
    diagnosis: str                        # why construction failed, if it did
    form_unit: Scalar | None              # image scale of the constant form
    generator_images: dict[int, ArithClass]
    relation_residues: list[tuple[str, ArithClass]]
    certificate: MapCertificate | None    # set when the system is inconsistent

    @property
    def ok(self) -> bool:
        return (self.constructed
                and all(res.is_zero() for _, res in self.relation_residues))


def _solve_rational_system(rows: list[tuple[dict[int, Fraction], Scalar]],
                           start: list[Scalar]) -> tuple[list[Scalar] | None,
                                                         list[Fraction] | None]:
    """Solve a rational linear system A x = b with Scalar right-hand sides;
    free variables keep their value in ``start``.  Returns (solution, None),
    or, when the system is inconsistent, (None, y) with yᵀA = 0 and
    yᵀb != 0: y is the combination of input rows that eliminated to
    0 = nonzero."""
    pivots: dict[int, tuple[dict[int, Fraction], Scalar, dict[int, Fraction]]] = {}
    for index, (entries, rhs) in enumerate(rows):
        entries = dict(entries)
        combo = {index: Fraction(1)}
        while entries:
            lead = min(entries)
            if lead in pivots:
                factor = entries[lead]
                prow, prhs, pcombo = pivots[lead]
                _axpy(entries, -factor, prow)
                _axpy(combo, -factor, pcombo)
                rhs = rhs - prhs * factor
                continue
            inv = Fraction(1) / entries[lead]
            entries = {c: v * inv for c, v in entries.items()}
            combo = {r: v * inv for r, v in combo.items()}
            rhs = rhs * inv
            pivots[lead] = (entries, rhs, combo)
            break
        else:
            if rhs:
                return None, [combo.get(r, Fraction(0)) for r in range(len(rows))]
    solution = list(start)
    for lead in sorted(pivots, reverse=True):
        row, rhs, _ = pivots[lead]
        acc = rhs
        for c, v in row.items():
            if c != lead:
                acc = acc - solution[c] * v
        solution[lead] = acc
    return solution, None


class _MapSolver:
    """Degreewise construction of the proportionality map.

    Generator images take the shape h(C_k) = (-1)^k C_k + a(B_k) with the
    constant form mapping to e0 times itself.  Images of even degree are
    forced by the even relation components below d; the remaining relation
    components give an exact linear system for the odd correction forms B
    and e0 (the form ideal has square zero, so everything stays linear).
    One build with a formal constant per unknown reads off that system, one
    elimination solves it, and one numeric build checks the solution.
    """

    def __init__(self, ring: AbelianTautRing):
        self.ring = ring
        self.d = ring.d
        aq = ring.aq
        # The unknowns in order: the coefficient (k, mono) of B_k for each
        # odd k < d and basis monomial of R^(k-1), then "e0".
        self.unknowns: list[tuple[int, Monomial] | str] = [
            (k, mono) for k in range(1, self.d, 2)
            for mono in aq.monomial_basis(k - 1)]
        self.unknowns.append("e0")
        # One row per (condition degree, form monomial), up to form degree
        # 2d - 3 <= d(d-1)/2: within the working degree at every d >= 2.
        self.condition_degrees = range(self.d + (self.d % 2), 2 * (self.d - 1) + 1, 2)
        self.rows = [(degree, mono) for degree in self.condition_degrees
                     for mono in aq.monomial_basis(degree - 1)]

    def _harmonic_rhs(self, degree: int, e0: Scalar) -> ArithClass:
        # Image of the degree-2k component of 1 - a(sum H s): the dual flips
        # the odd power sum, leaving +e0 H s.
        s = self.ring.odd_sums[degree // 2]
        return self.ring.from_a(s * (harmonic(degree - 1) * e0))

    def _build(self, x: list[Scalar]):
        """Images {k: class} and conditions [(degree, class)] at the values
        ``x`` of the unknowns, in ``self.unknowns`` order."""
        ring, d = self.ring, self.d
        values = dict(zip(self.unknowns, x))
        e0 = values["e0"]
        X: dict[int, ArithClass] = {0: ring.one()}

        def component(degree: int) -> ArithClass:
            # The right-hand side minus sum (-1)^i X_i X_j over i + j = degree
            # and 0 < i, j < d: the dual square's degree part but for 2 X_k,
            # the part with i or j = 0, which solves for an even image.
            half = degree // 2
            acc = self._harmonic_rhs(degree, e0)
            if half < d:
                acc = acc - (X[half] * X[half]) * Fraction((-1) ** half)
            for i in range(max(1, degree - d + 1), half):
                acc = acc - (X[i] * X[degree - i]) * Fraction(2 * (-1) ** i)
            return acc

        for k in range(1, d):
            if k % 2 == 1:
                z = GradedPoly.generator(ring.zgens, f"C{k}") * Fraction(-1)
                terms = {m: values[(k, m)] for m in ring.aq.monomial_basis(k - 1)}
                image = ArithClass(ring, z,
                                   GradedPoly(ring.agens, terms),
                                   GradedPoly.zero(ring.agens))
            else:
                image = component(k) * Fraction(1, 2)
            X[k] = ring.reduce(image).drop_gamma()
        conditions = [(degree, ring.reduce(component(degree)).drop_gamma())
                      for degree in self.condition_degrees]
        return X, conditions

    def linearize(self):
        """Build the map once with the j-th unknown as the formal constant xj.
        Returns the images {k: class}, the conditions {degree: class}, and
        per row the pair ({j: M[row][j]}, c(0)[row]) of the affine conditions
        c(x) = c(0) + M x.  Raises ReductionError unless each unknown (k, m)
        appears as its own symbol in the form part of image k at m, and
        ValueError on a term that is not rational in the unknowns."""
        images, conditions = self._build(
            [Scalar.symbol(f"x{j}") for j in range(len(self.unknowns))])
        for j, (k, m) in enumerate(self.unknowns[:-1]):
            if images[k].a.coefficient(m).coefficient(((f"x{j}", 1),)) != 1:
                raise ReductionError("the map's conditions do not consume "
                                     "exactly its unknowns")
        conditions = dict(conditions)
        system = {}
        for ri, (degree, mono) in enumerate(self.rows):
            entries, constant = {}, {}
            for term, coeff in conditions[degree].a.coefficient(mono).items():
                if not any(name[0] == "x" for name, _ in term):
                    constant[term] = coeff
                elif len(term) == 1 and term[0][1] == 1:
                    entries[int(term[0][0][1:])] = coeff
                else:
                    raise ValueError(
                        f"proportionality map: term {Scalar({term: coeff})} "
                        f"of row {ri} is not rational in the unknowns")
            system[(degree, mono)] = (entries, Scalar(constant))
        return images, conditions, system

    def solve(self):
        """Returns ((images, e0), "", None) or (None, diagnosis, certificate);
        the certificate is set only when the linear system is inconsistent."""
        images, conditions, system = self.linearize()
        for degree, cond in conditions.items():
            if not cond.z.is_zero():
                return None, (f"polynomial part of the degree-{degree} "
                              "condition does not vanish"), None
        for k in range(2, self.d, 2):
            expected = GradedPoly.generator(self.ring.zgens, f"C{k}")
            if images[k].z != expected:
                return None, (f"forced image of C{k} has a mixed polynomial "
                              "part"), None

        # The system is M x = b with b = -c(0).  Free unknowns start at 0
        # and e0, the last, at 1: if e0 is free it stays 1, else its value
        # is forced.  A certificate from this system rules out every e0.
        rows = [(entries, -constant) for entries, constant in system.values()]
        start = [ZERO] * (len(self.unknowns) - 1) + [ONE]
        solution, y = _solve_rational_system(rows, start)
        if solution is None:
            value = sum((rhs * w for (_, rhs), w in zip(rows, y)), ZERO)
            return None, ("no correction forms make every relation "
                          "component vanish: the linear system is "
                          "inconsistent over the exact scalars"), \
                MapCertificate(self.d, dict(zip(self.rows, y)), value)
        e0 = solution[-1]
        if not e0:
            return None, "only the degenerate map with e0 = 0 survives", None
        images, conditions = self._build(solution)
        for degree, cond in conditions:
            if not cond.is_zero():
                return None, f"residual condition at degree {degree}", None
        return (images, e0), "", None


def condition_pairing(y: Mapping[tuple[int, Monomial], Fraction],
                      ring: AbelianTautRing) -> Scalar | None:
    """yᵀc for weights y on the map's condition coefficients, labelled by
    (condition degree, form monomial), if it does not depend on the map's
    unknowns; else None.  Evaluates the conditions in one symbolic build
    and uses no elimination.

    The conditions are affine in the unknowns, c(x) = c(0) + M x, so yᵀc is
    constant exactly when yᵀM = 0, and is then yᵀc(0).  The unknowns the
    conditions consume must be exactly the map's shape: a basis of R^(k-1)
    for each odd k < d, plus the constant-form scale e0.
    """
    try:
        system = _MapSolver(ring).linearize()[2]
    except ReductionError:
        return None
    y_m: dict[int, Fraction] = {}
    value = ZERO
    for label, weight in y.items():
        if label not in system:
            return None
        entries, constant = system[label]
        _axpy(y_m, weight, entries)
        value = value + constant * weight
    return None if y_m else value


def verify_map_certificate(cert: MapCertificate,
                           ring: AbelianTautRing | None = None) -> bool:
    """Re-check a proportionality-map obstruction by evaluating the map's
    conditions: yᵀc must be the same nonzero scalar, -value, for every
    choice of the unknowns."""
    ring = ring or AbelianTautRing(cert.d)
    return (ring.d == cert.d and bool(cert.value)
            and condition_pairing(cert.y, ring) == -cert.value)


def proportionality_map_check(d: int,
                              abelian: AbelianTautRing | None = None) -> ProportionalityReport:
    """Construct the proportionality map from the Lagrangian ring with exact
    harmonic coefficients to the abelian ring modulo (a(gamma)) and push
    every relation through it.

    The generator images are re-verified by an independent sweep: each
    relation of the source, written in the abelian ring, is evaluated at the
    images and reduced; success means every residue is exactly zero.  The
    lifted relations are p_k(C_1..C_{d-1}) = a(rho_k) with
    rho_k = (-1)^(k+1) H(2k-1) s_{2k-1}(u), and the form relation is their
    forgotten lifts' sum_k (-1)^k p_k(u), the dual square, whose residue is
    zero by construction; reduction in the abelian ring sends u_d to 0.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    A = _ring_for(d, abelian, AbelianTautRing)

    solved, diagnosis, certificate = _MapSolver(A).solve()
    if solved is None:
        images = {k: ArithClass(A, GradedPoly.generator(A.zgens, f"C{k}")
                                * Fraction((-1) ** k),
                                GradedPoly.zero(A.agens),
                                GradedPoly.zero(A.agens))
                  for k in range(1, d)}
        e0: Scalar | None = None
        constructed = False
    else:
        full_images, e0 = solved
        images = {k: v for k, v in full_images.items() if 1 <= k < d}
        constructed = True

    def push_z(poly: GradedPoly) -> ArithClass:
        acc = A.zero()
        for mono, coeff in poly.items():
            term = A.one()
            for i, e in enumerate(mono):
                if e:
                    term = term * images[i + 1] ** e
            acc = acc + term * coeff
        return acc

    unit = e0 if e0 is not None else Scalar.coerce(1)
    residues: list[tuple[str, ArithClass]] = []
    # The map sends a(f) to a(dual(f) * unit); rho_k has odd degree, so its
    # dual is -rho_k, and the dual square is its own dual.
    source = ClassVector.standard(A.zgens, A.zgens.names[:d - 1])
    form = GradedPoly.zero(A.agens)
    for k, p in enumerate(pontrjagin_from_c(source), 1):
        rho = A.odd_sums[k] * (harmonic(2 * k - 1) * Fraction((-1) ** (k + 1)))
        image = push_z(p) + A.from_a(rho * unit)
        residues.append((f"lifted relation {k}", A.reduce(image).drop_gamma()))
        form = form + A.omega(p) * (-1) ** k
    image = A.from_a(form * unit)
    residues.append(("form relation 1", A.reduce(image).drop_gamma()))
    return ProportionalityReport(d, constructed, diagnosis, e0, images,
                                 residues, certificate)
