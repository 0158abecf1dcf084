"""Exact character tables and class-function operations.

Tables are computed by the standard two-phase scheme: common eigenvectors of
the class-algebra matrices over a prime field F_q (q = 1 mod exp(G), large
enough that degrees and multiplicities lift uniquely), then exact character
values recovered per class by counting root-of-unity multiplicities through
a discrete Fourier sum over powers of the class representative.  Row
orthogonality is verified exactly, in integer arithmetic, at construction
time; for a square table the column relation follows from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from . import perm as pm
from .cyclotomic import Cyc, _ctx, dixon_prime, primitive_root, render_cyc, root_of_unity
from .fq import PrimeField, eigenvalues, nullspace, rref
from .groups import (
    ConjClasses,
    PermGroup,
    Subgroup,
    check_same_group,
    conjugacy_classes,
    is_normal,
)
from .kernels import pure


class NotACharacterError(ValueError):
    """Decomposition asked of a class function that is not a character."""


class ClassFunction:
    """A Cyc-valued function on the conjugacy classes of a fixed group."""

    __slots__ = ("group", "values")

    def __init__(self, group: PermGroup, values):
        self.values = tuple(values)
        self.group = group
        if len(self.values) != conjugacy_classes(group).count:
            raise ValueError(f"class function on {group.name} needs one value per class")

    @property
    def degree(self) -> Cyc:
        return self.values[0]

    def degree_int(self) -> int:
        d = self.values[0].as_fraction()
        if d.denominator != 1:
            raise ValueError(f"degree {d} is not an integer")
        return d.numerator

    def __add__(self, other):
        check_same_group("ClassFunction.__add__", self.group, other.group)
        return ClassFunction(self.group, (a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        check_same_group("ClassFunction.__sub__", self.group, other.group)
        return ClassFunction(self.group, (a - b for a, b in zip(self.values, other.values)))

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and other.group is self.group
            and other.values == self.values
        )

    def __hash__(self):
        return hash((id(self.group), self.values))

    def __repr__(self):
        vals = ", ".join(render_cyc(v) for v in self.values)
        return f"ClassFunction({self.group.name}; {vals})"


class FusionMap:
    """Class fusion from a subgroup view into its parent group."""

    __slots__ = ("subgroup", "class_map")

    def __init__(self, subgroup: Subgroup, class_map):
        self.subgroup = subgroup
        self.class_map = tuple(class_map)


class CharacterTable:
    """Exact irreducible characters in canonical order.

    Rows are sorted by (degree, lexicographic value sequence), with the value
    order pinned so the trivial character is always row 0.
    """

    def __init__(self, group: PermGroup, classes: ConjClasses, rows):
        self.group = group
        self.classes = classes
        self.rows: tuple[ClassFunction, ...] = tuple(rows)
        self.degrees = tuple(r.degree_int() for r in self.rows)

    @property
    def count(self) -> int:
        return len(self.rows)

    def linear_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    def index_of(self, f: ClassFunction) -> int:
        check_same_group("CharacterTable.index_of", f.group, self.group)
        for i, row in enumerate(self.rows):
            if row.values == f.values:
                return i
        for i, row in enumerate(self.rows):  # conductor-insensitive fallback
            if all(a == b for a, b in zip(row.values, f.values)):
                return i
        raise ValueError("class function is not a row of this table")

    def to_dict(self) -> dict:
        cls = self.classes
        return {
            "group": self.group.name,
            "order": self.group.order,
            "degree": self.group.degree,
            "class_sizes": list(cls.sizes),
            "class_orders": [cls.rep_order(i) for i in range(cls.count)],
            "class_reps": [pm.cycle_string(cls.rep(i)) for i in range(cls.count)],
            "degrees": list(self.degrees),
            "irreducibles": [[render_cyc(v) for v in row.values] for row in self.rows],
        }

    def render_text(self) -> str:
        cls = self.classes
        head = [
            ["class"] + [str(i) for i in range(cls.count)],
            ["size"] + [str(s) for s in cls.sizes],
            ["order"] + [str(cls.rep_order(i)) for i in range(cls.count)],
            ["rep"] + [pm.cycle_string(cls.rep(i)) for i in range(cls.count)],
        ]
        body = [
            [f"chi.{i}"] + [render_cyc(v) for v in row.values]
            for i, row in enumerate(self.rows)
        ]
        grid = head + body
        widths = [max(len(r[c]) for r in grid) for c in range(cls.count + 1)]
        lines = [f"group {self.group.name}  order {self.group.order}  classes {cls.count}"]
        for r in grid:
            lines.append("  ".join(s.rjust(w) for s, w in zip(r, widths)))
        return "\n".join(lines) + "\n"


# -- table construction -----------------------------------------------------------


def character_table(G: PermGroup) -> CharacterTable:
    if G._char_table is None:
        G._char_table = _dixon_schneider(G)
    return G._char_table


def _dixon_schneider(G: PermGroup) -> CharacterTable:
    """Character table from the common eigenvectors of the class matrices.

    Each irreducible chi has the central character omega_i = |C_i| chi(g_i) /
    chi(1).  With the class-algebra structure constants c_ijk (class matrix
    i holds c_ijk at row j, column k), sum_k c_ijk omega_k = omega_i omega_j,
    so omega is a right eigenvector of every class matrix.  The common
    eigenspaces are lines, so each eigenvector is a multiple of some omega,
    and omega_0 = 1 on the identity class fixes the scale: omega is read off
    the eigenvector with no further class matrix built.
    """
    classes = conjugacy_classes(G)
    r = classes.count
    n = G.order
    q = dixon_prime(G.exponent, n)
    field = PrimeField(q)

    def class_matrix(i):
        return pure.class_matrix(G.ctx, classes.class_of_id, classes.members_ids[i], classes.rep_ids)

    vectors = _common_eigenvectors(class_matrix, r, q)
    if len(vectors) != r:
        raise RuntimeError(f"{G.name}: {len(vectors)} common eigenvectors for {r} classes")
    inv_sizes = [field.inv(s) for s in classes.sizes]
    w0 = primitive_root(q)
    rows = []
    for vec in vectors:
        if vec[0] == 0:
            raise RuntimeError(f"{G.name}: common eigenvector vanishes on the identity class")
        inv0 = field.inv(vec[0])
        omega = [(x * inv0) % q for x in vec]
        t = sum(omega[i] * omega[classes.inverse_class(i)] * inv_sizes[i] for i in range(r)) % q
        d2 = (n * field.inv(t)) % q
        d = next(k for k in range(1, isqrt(n) + 1) if (k * k) % q == d2)
        fq_values = [(d * omega[i] * inv_sizes[i]) % q for i in range(r)]
        values = [_lift_value(classes, i, fq_values, d, w0, field) for i in range(r)]
        rows.append(ClassFunction(G, values))
    rows.sort(key=lambda f: (f.degree_int(), tuple(v.sort_key() for v in f.values)))
    table = CharacterTable(G, classes, rows)
    _verify_table(table)
    return table


def _common_eigenvectors(class_matrix, r, q):
    """Split F_q^r into common 1-dim eigenspaces of the class matrices.

    ``class_matrix(i)`` builds the matrix of class i; it is called in
    canonical class order and only until every space is a line, so matrices
    the split does not need are never built.  Spaces are row bases in reduced
    row echelon form and eigen-subspaces are ordered by ascending eigenvalue,
    so the output is deterministic.  Returns one spanning vector per line.
    """
    identity = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    spaces = [(identity, list(range(r)))]
    for i in range(1, r):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        mat = class_matrix(i)
        nxt = []
        for basis, pivots in spaces:
            dim = len(basis)
            if dim == 1:
                nxt.append((basis, pivots))
                continue
            images = [
                [sum(mat[j][k] * b[k] for k in range(r)) % q for j in range(r)] for b in basis
            ]
            # images[j] = mat * basis[j]; T expresses that in the basis, so a
            # coordinate row c transforms as c -> c*T and eigen-coordinates
            # are nullspace vectors of (T^t - lambda).
            T = [[images[j][p] for p in pivots] for j in range(dim)]
            for j in range(dim):  # invariance check: image must lie in the space
                recon = [sum(T[j][l] * basis[l][c] for l in range(dim)) % q for c in range(r)]
                if recon != images[j]:
                    raise RuntimeError("class-matrix eigenspace is not invariant")
            Tt = [[T[b][a] for b in range(dim)] for a in range(dim)]
            covered = 0
            for lam in eigenvalues(Tt, q):
                shifted = [
                    [(Tt[a][b] - (lam if a == b else 0)) % q for b in range(dim)]
                    for a in range(dim)
                ]
                vecs = [
                    [sum(c[l] * basis[l][col] for l in range(dim)) % q for col in range(r)]
                    for c in nullspace(shifted, q)
                ]
                if vecs:
                    rows, pivs = rref(vecs, q)
                    covered += len(rows)
                    nxt.append((rows, pivs))
            if covered != dim:
                raise RuntimeError("eigenspace splitting lost dimensions")
        spaces = nxt
    for basis, _ in spaces:
        if len(basis) != 1:
            raise RuntimeError("eigenspace splitting failed to reach dimension 1")
    return [basis[0] for basis, _ in spaces]


def _lift_value(classes, i, fq_values, degree, w0, field):
    """Exact value at class i from the F_q row, by root-of-unity counting."""
    q = field.q
    m = classes.rep_order(i)
    if m == 1:
        return Cyc.rational(degree)
    wm = pow(w0, (q - 1) // m, q)
    inv_m = field.inv(m)
    counts = []
    for k in range(m):
        s = sum(fq_values[classes.power_class(i, j)] * pow(wm, (-j * k) % m, q) for j in range(m))
        counts.append((s * inv_m) % q)
    if sum(counts) != degree:
        raise RuntimeError("root-of-unity multiplicities do not add up to the degree")
    value = Cyc.rational(counts[0])
    for k in range(1, m):
        if counts[k]:
            value = value + counts[k] * root_of_unity(m, k)
    return value


def _verify_table(table: CharacterTable) -> None:
    """Every table must pass row orthogonality exactly, or die.

    With X the r x r table and D = diag(|C_i|), the check is X D conj(X)^t =
    |G| I.  That makes X invertible with inverse D conj(X)^t / |G|, so
    conj(X)^t X = |G| D^-1: column orthogonality follows and is not rechecked.

    Character values are algebraic integers, so at the lcm conductor m every
    value and its conjugate is an integer vector in the power basis of
    Z[zeta_m].  Each vector is packed into one int (Kronecker substitution),
    one big-int product per class gives the polynomial product, and the sum
    over classes is decoded and reduced mod Phi_m once per pair of rows.
    """
    G, cls = table.group, table.classes
    n, r = G.order, cls.count
    if len(table.rows) != r or sum(d * d for d in table.degrees) != n:
        raise RuntimeError(f"{G.name}: degree squares do not sum to the group order")
    if not all(v == 1 for v in table.rows[0].values):
        raise RuntimeError(f"{G.name}: first irreducible is not the trivial character")
    m = lcm(*(v.n for row in table.rows for v in row.values))
    ctx = _ctx(m)
    phi = ctx.phi
    embedded = {}
    for row in table.rows:
        for v in row.values:
            key = (v.n, v.coeffs)
            if key not in embedded:
                embedded[key] = _embed_with_conj(v, m, ctx, G.name)
    bound = n * phi * max(max(map(abs, x + y)) for x, y in embedded.values()) ** 2
    width = (2 * bound).bit_length()
    packed = {key: (_pack(x, width), _pack(y, width)) for key, (x, y) in embedded.items()}
    weighted, conj = [], []
    for row in table.rows:
        pairs = [packed[(v.n, v.coeffs)] for v in row.values]
        weighted.append([s * x for s, (x, _) in zip(cls.sizes, pairs)])
        conj.append([y for _, y in pairs])
    slots = 2 * phi - 1
    for a in range(r):
        xa = weighted[a]
        for b in range(a, r):
            digits = _unpack(sum(map(mul, xa, conj[b])), width, slots)
            reduced = digits[:phi]
            for j in range(phi, slots):
                if digits[j]:
                    for i, t in enumerate(ctx.rows[j]):
                        reduced[i] += digits[j] * t
            if reduced[0] != (n if a == b else 0) or any(reduced[1:]):
                raise RuntimeError(f"{G.name}: first orthogonality fails at rows {a},{b}")


def _embed_with_conj(v: Cyc, m: int, ctx, name: str) -> tuple[list[int], list[int]]:
    """Integer coefficients of v and conj(v) in the power basis of Z[zeta_m]."""
    if any(c.denominator != 1 for c in v.coeffs):
        raise RuntimeError(f"{name}: character value {render_cyc(v)} is not an algebraic integer")
    step = m // v.n
    x, y = [0] * ctx.phi, [0] * ctx.phi
    for k, c in enumerate(v.coeffs):
        if c:
            c = c.numerator
            for out, e in ((x, k * step), (y, -k * step)):
                for i, t in enumerate(ctx.power_row(e)):
                    if t:
                        out[i] += c * t
    return x, y


def _pack(coeffs, width: int) -> int:
    """Kronecker substitution: sum_j coeffs[j] * 2^(width*j), signed coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << width) + c
    return acc


def _unpack(value: int, width: int, slots: int) -> list[int]:
    """Inverse of ``_pack`` with balanced digits in [-2^(width-1), 2^(width-1)).

    Exact as long as every coefficient lies in that range; anything left above
    the top slot means a coefficient overflowed, and raises.
    """
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = []
    for _ in range(slots):
        d = ((value + half) & mask) - half
        out.append(d)
        value = (value - d) >> width
    if value:
        raise RuntimeError("packed sum overflows its top slot")
    return out


# -- class-function operations ------------------------------------------------------


def fusion_map(H: Subgroup) -> FusionMap:
    """Map each class of the subgroup view to its parent class (cached)."""
    if H._fusion is None:
        parent_classes = conjugacy_classes(H.parent)
        view_classes = conjugacy_classes(H.view)
        cmap = [parent_classes.class_of_perm(view_classes.rep(i)) for i in range(view_classes.count)]
        H._fusion = FusionMap(H, cmap)
    return H._fusion


def restrict(chi: ClassFunction, H: Subgroup, fusion: FusionMap | None = None) -> ClassFunction:
    """Restriction to a subgroup, read through the fusion map."""
    check_same_group("restrict", chi.group, H.parent)
    fusion = fusion or fusion_map(H)
    return ClassFunction(H.view, (chi.values[c] for c in fusion.class_map))


def induce(theta: ClassFunction, H: Subgroup) -> ClassFunction:
    """Induced class function on the parent group (standard formula)."""
    G = H.parent
    view = H.view
    check_same_group("induce", theta.group, view)
    view_classes = conjugacy_classes(view)
    parent_classes = conjugacy_classes(G)
    theta_at = {}
    for pid in H.sorted_ids:
        p = G.elements[pid]
        theta_at[pid] = theta.values[view_classes.class_of_perm(p)]
    scale = Fraction(1, H.order)
    values = []
    for k in range(parent_classes.count):
        z = parent_classes.rep_ids[k]
        acc = Cyc.zero()
        for x in range(G.order):
            u = G.mul(G.mul(x, z), G.inv(x))
            got = theta_at.get(u)
            if got is not None:
                acc = acc + got
        values.append(scale * acc)
    return ClassFunction(G, values)


def mul_classfn(a: ClassFunction, b: ClassFunction) -> ClassFunction:
    check_same_group("mul_classfn", a.group, b.group)
    return ClassFunction(a.group, (x * y for x, y in zip(a.values, b.values)))


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyc:
    """(1/|G|) sum over classes of size * a * conj(b); exact."""
    check_same_group("inner_product", a.group, b.group)
    cls = conjugacy_classes(a.group)
    acc = Cyc.zero()
    for s, x, y in zip(cls.sizes, a.values, b.values):
        acc = acc + s * (x * y.conj())
    return Fraction(1, a.group.order) * acc


def inner_product_int(a: ClassFunction, b: ClassFunction) -> int:
    v = inner_product(a, b)
    if not v.is_rational or v.as_fraction().denominator != 1:
        raise NotACharacterError(f"inner product {render_cyc(v)} is not a rational integer")
    return v.as_fraction().numerator


def constituents(f: ClassFunction) -> list[tuple[int, int]]:
    """(row index, multiplicity) pairs; errors unless f is a genuine character."""
    table = character_table(f.group)
    out = []
    for i, row in enumerate(table.rows):
        v = inner_product(f, row)
        if not v.is_rational or v.as_fraction().denominator != 1 or v.as_fraction() < 0:
            raise NotACharacterError(
                f"multiplicity of row {i} is {render_cyc(v)}; not a character"
            )
        m = v.as_fraction().numerator
        if m:
            out.append((i, m))
    recon = None
    for i, m in out:
        term = ClassFunction(f.group, (m * v for v in table.rows[i].values))
        recon = term if recon is None else recon + term
    if recon is None:
        recon = ClassFunction(f.group, (Cyc.zero() for _ in f.values))
    if recon.values != f.values and recon != f:
        raise NotACharacterError("class function is not an integer combination of irreducibles")
    return out


def lying_over(table: CharacterTable, N: Subgroup, theta: ClassFunction) -> list[int]:
    """Indices of irreducibles chi with <chi_N, theta> != 0 (N normal)."""
    if not is_normal(table.group, N):
        raise ValueError("lying_over: N is not normal")
    out = []
    for i, row in enumerate(table.rows):
        if inner_product_int(restrict(row, N), theta):
            out.append(i)
    return out


def constituents_over(f: ClassFunction, N: Subgroup, theta: ClassFunction) -> list[int]:
    """Constituent rows of f that lie over theta on the normal subgroup N."""
    check_same_group("constituents_over", N.parent, f.group)
    if not is_normal(f.group, N):
        raise ValueError("constituents_over: N is not normal")
    table = character_table(f.group)
    out = []
    for i, _ in constituents(f):
        if inner_product_int(restrict(table.rows[i], N), theta):
            out.append(i)
    return out


def conjugate_classfn(theta: ClassFunction, N: Subgroup, g: pm.Perm) -> ClassFunction:
    """theta^g on the same view: (theta^g)(x) = theta(g x g^-1)."""
    view = N.view
    check_same_group("conjugate_classfn", theta.group, view)
    cls = conjugacy_classes(view)
    ginv = pm.inverse(g)
    values = []
    for c in range(cls.count):
        t = pm.conjugate(cls.rep(c), ginv)  # g * rep * g^-1
        values.append(theta.values[cls.class_of_perm(t)])
    return ClassFunction(view, values)


def is_invariant_under(theta: ClassFunction, N: Subgroup, S: Subgroup) -> bool:
    """True if theta^g = theta for every g in S (checked on generators of S)."""
    G = N.parent
    check_same_group("is_invariant_under", S.parent, G)
    return all(
        conjugate_classfn(theta, N, G.elements[g]).values == theta.values for g in S.gen_ids
    )


def orbit_and_stabilizer(
    theta: ClassFunction, N: Subgroup, actors: Subgroup | None = None
) -> tuple[tuple[ClassFunction, ...], Subgroup]:
    """Orbit of theta under conjugation and its stabilizer inside ``actors``.

    ``actors`` defaults to the full parent group of N (which must contain N
    as a normal subgroup so conjugation is well defined on Irr(N)).

    The orbit is walked as a queue over the generators ``actors.gen_ids``, in
    breadth-first order, keeping a transversal: theta^(t_i) = orbit[i], with
    t_0 the identity.  Whenever orbit[i]^s is orbit[j] for a generator s, the
    Schreier generator t_i * s * t_j^-1 fixes theta, and by Schreier's lemma
    these generate the stabilizer, which is returned as their closure.
    """
    G = N.parent
    if actors is None:
        actors = G.full_subgroup()
    check_same_group("orbit_and_stabilizer", actors.parent, G)
    orbit = [theta]
    transversal = [0]
    position = {theta.values: 0}
    schreier = set()
    for i, f in enumerate(orbit):  # the loop also visits points appended on the way
        t = transversal[i]
        for s in actors.gen_ids:
            image = conjugate_classfn(f, N, G.elements[s])
            ts = G.mul(t, s)
            j = position.get(image.values)
            if j is None:
                position[image.values] = len(orbit)
                orbit.append(image)
                transversal.append(ts)
            else:
                schreier.add(G.mul(ts, G.inv(transversal[j])))
    schreier.discard(0)
    stab, _ = G.pruned_closure_ids(sorted(schreier))
    return tuple(orbit), G.subgroup_from_ids(stab)


def p_prime_irreducibles(table: CharacterTable, p: int) -> tuple[int, ...]:
    """Row indices of irreducibles whose degree is coprime to p."""
    return tuple(i for i, d in enumerate(table.degrees) if d % p != 0)


def galois_classfn(f: ClassFunction, k: int) -> ClassFunction:
    """Apply the Galois map zeta -> zeta^k to every value."""
    return ClassFunction(f.group, (v.galois(k) for v in f.values))
