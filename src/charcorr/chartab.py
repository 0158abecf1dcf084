"""Exact character tables and class-function operations.

Tables are computed by the standard two-phase scheme (Dixon, Schneider):
common eigenvectors of the class-algebra matrices over a prime field F_q
(q = 1 mod exp(G), large enough that degrees and multiplicities lift
uniquely), then exact character values.  The eigenvectors come from
splitting one vector, the identity class's, into its components in the
common eigenspaces (``fq.split``).  A rational class, one that every power
map pi_k (k prime to its order) fixes, has integer values, since
chi^sigma(g) = chi(g^k) for sigma: zeta -> zeta^k; each is read off the
residue of its F_q value.  Every other value is recovered by counting
root-of-unity multiplicities through a discrete Fourier sum over powers of
the class representative.  The class matrices come as sparse columns, so an
image costs one pass over the nonzero entries; coordinate k of all the
eigenvectors is packed into one integer, so checking them against a class
matrix is one pass over its entries with big-int sums.  The Fourier sum
reads the classes' power map (``ConjClasses.powers``) and one list of roots
of unity mod q per order of such a class, built once per table;
``_lift_value`` is the per-entry step, and it runs once per distinct row of
F_q values on a class's powers, since its result depends on nothing else.
One exact engine, ``_pairings``, computes sum_i |C_i| a(g_i) conj(b(g_i)),
in the two shapes the maths needs: a table's rows paired with themselves
verify row orthogonality of every table at construction time (for a square
table the column relation follows), and class functions paired with a
table's rows decompose into irreducibles.
Integer values (common conductor 1) are paired as plain dot products, all
others on Kronecker-packed integers.
A group known to be a direct product A x B gets its table from its
factors' tables instead (``product_table``), sorted and checked the same way.
"""

from __future__ import annotations

import sys
from math import gcd, isqrt, lcm
from operator import mul

from . import perm as pm
from .cyclotomic import (
    Cyc,
    dixon_prime,
    euler_phi,
    power_basis,
    primitive_root,
    render_cyc,
    root_sum,
)
from .fq import split
from .groups import (
    MAX_CLASSES,
    ConjClasses,
    GroupTooLargeError,
    PermGroup,
    Subgroup,
    check_same_group,
    conjugacy_classes,
    direct_factor_classes,
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

    def degree_int(self) -> int:
        d = self.values[0]
        if d.n != 1:
            raise ValueError(f"degree {render_cyc(d)} is not an integer")
        return d.coeffs[0]

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
        self.conductor = lcm(*(v.n for r in self.rows for v in r.values))
        self._embeddings = {}  # filled by embedding

    def embedding(self, m: int):
        """The rows embedded in Z[zeta_m] for the pairing engine, built once per m.

        At m = 1 that is the rows' integer values (``_Integers``).
        """
        emb = self._embeddings.get(m)
        if emb is None:
            emb = self._embeddings[m] = (_Embedding if m > 1 else _Integers)(self.rows, m)
        return emb

    @property
    def count(self) -> int:
        return len(self.rows)

    def linear_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    def index_of(self, f: ClassFunction) -> int:
        check_same_group("CharacterTable.index_of", f.group, self.group)
        for i, row in enumerate(self.rows):
            if row.values == f.values:  # each Cyc is stored in its one (least-conductor) form
                return i
        raise ValueError("class function is not a row of this table")

    def _rendered_rows(self) -> list[list[str]]:
        """Each row's values as text; a value repeated across the table is rendered once."""
        text = {v: render_cyc(v) for v in {v for row in self.rows for v in row.values}}
        return [[text[v] for v in row.values] for row in self.rows]

    def to_dict(self) -> dict:
        cls = self.classes
        return {
            "group": self.group.name,
            "order": self.group.order,
            "degree": self.group.degree,
            "class_sizes": list(cls.sizes),
            "class_orders": list(cls.orders),
            "class_reps": [pm.cycle_string(cls.rep(i)) for i in range(cls.count)],
            "degrees": list(self.degrees),
            "irreducibles": self._rendered_rows(),
        }

    def render_text(self) -> str:
        cls = self.classes
        head = [
            ["class"] + [str(i) for i in range(cls.count)],
            ["size"] + [str(s) for s in cls.sizes],
            ["order"] + [str(o) for o in cls.orders],
            ["rep"] + [pm.cycle_string(cls.rep(i)) for i in range(cls.count)],
        ]
        body = [[f"chi.{i}"] + row for i, row in enumerate(self._rendered_rows())]
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
    the eigenvector with no further class matrix built.  The classes' power
    map gives the inverse class of C_i (the class of g^(m-1) = g^-1), whose
    members class matrix i is built from, and the classes of the powers of
    each representative.  A class that every pi_k (k prime to its order)
    fixes is rational: its value is an integer in [-d, d], d = chi(1) <=
    sqrt(|G|) < q/2 (``dixon_prime``), so it is the residue of its F_q value
    in [-d, q - d), with no Fourier sum; a residue above d is an engine
    fault (RuntimeError naming the row, counted in eigenvector order, and
    the class).  At every other class ``_lift_value`` turns the F_q values
    of a row on the powers into an exact value, with roots of unity built
    for those classes' orders only.  The integer, or the F_q values on the
    powers, are the key of a per-table dict, so each distinct key is lifted
    once, and its value's sort key is computed once for the row order.  A
    group with more than ``MAX_CLASSES`` classes is refused before any matrix
    is built.
    """
    classes = conjugacy_classes(G)
    r = classes.count
    if r > MAX_CLASSES:
        raise GroupTooLargeError(
            f"{G.name}: {r} conjugacy classes exceed the class bound {MAX_CLASSES} of a table"
        )
    n = G.order
    q = dixon_prime(G.exponent, n)
    inverse_class = [powers[-1] for powers in classes.powers]
    # g^k is in g's class only if k is prime to m = |g|, so pi_k fixes the
    # class for every such k when phi(m) of the m powers lie in it
    rational = {c for c, p in enumerate(classes.powers) if p.count(c) == euler_phi(len(p))}

    def class_matrix(i):
        inverse_members = classes.members_ids[inverse_class[i]]
        return pure.class_matrix(G, classes.class_of_id, inverse_members, classes.rep_ids)

    vectors = _common_eigenvectors(class_matrix, r, q)
    if len(vectors) != r:
        raise RuntimeError(f"{G.name}: {len(vectors)} common eigenvectors for {r} classes")
    inv_sizes = [pow(s, q - 2, q) for s in classes.sizes]
    roots = _inverse_roots(q, [m for c, m in enumerate(classes.orders) if c not in rational])
    lifted = {}  # per distinct integer or row of F_q values on a class's powers: value, sort key
    rows = []
    for vec in vectors:
        if vec[0] == 0:
            raise RuntimeError(f"{G.name}: common eigenvector vanishes on the identity class")
        inv0 = pow(vec[0], q - 2, q)
        omega = [(x * inv0) % q for x in vec]
        t = sum(omega[i] * omega[inverse_class[i]] * inv_sizes[i] for i in range(r)) % q
        d2 = (n * pow(t, q - 2, q)) % q
        d = next((k for k in range(1, isqrt(n) + 1) if (k * k) % q == d2), None)
        if d is None:
            raise RuntimeError(f"{G.name}: no degree d <= sqrt(|G|) has d^2 = {d2} mod {q}")
        fq_values = [(d * omega[i] * inv_sizes[i]) % q for i in range(r)]
        entries = []
        for c, powers in enumerate(classes.powers):
            if c not in rational:
                key = tuple(fq_values[i] for i in powers)
            elif (key := (fq_values[c] + d) % q - d) > d:
                raise RuntimeError(
                    f"{G.name}: row {len(rows)}, rational class {c}: {key} exceeds the degree {d}"
                )
            entry = lifted.get(key)
            if entry is None:
                value = (
                    Cyc.rational(key) if c in rational else _lift_value(key, roots[len(key)], q)
                )
                entry = lifted[key] = (value, value.sort_key())
            entries.append(entry)
        rows.append((d, tuple(k for _, k in entries), [v for v, _ in entries]))
    return _checked_table(G, classes, rows)


def product_table(G: PermGroup, A: Subgroup, B: Subgroup) -> CharacterTable:
    """G's table from its factors' tables, for G the internal direct product A x B.

    Irr(A x B) = {lambda x beta : lambda in Irr(A), beta in Irr(B)} (Isaacs,
    *Character Theory of Finite Groups*, Thm 4.21): on the class of t = a*b
    the row lambda x beta takes lambda(a) beta(b), with the factor classes
    read off ``direct_factor_classes``.  The rows are ordered and checked as
    ``_dixon_schneider`` orders and checks its own, and the table is stored
    as G's.  If G already has a table, that table is returned.
    """
    if G._char_table is None:
        pairs = direct_factor_classes(G, A, B)
        a_table, b_table = character_table(A.view), character_table(B.view)
        rows = []
        for da, lam in zip(a_table.degrees, a_table.rows):
            for db, beta in zip(b_table.degrees, b_table.rows):
                values = [lam.values[i] * beta.values[j] for i, j in pairs]
                rows.append((da * db, tuple(v.sort_key() for v in values), values))
        G._char_table = _checked_table(G, conjugacy_classes(G), rows)
    return G._char_table


def _checked_table(G: PermGroup, classes: ConjClasses, rows) -> CharacterTable:
    """The table of rows given as (degree, sort keys of the values, values), once verified.

    The rows go in canonical order: by degree, then by the values' sort keys.
    """
    rows.sort(key=lambda row: row[:2])
    table = CharacterTable(G, classes, [ClassFunction(G, values) for _, _, values in rows])
    _verify_table(table)
    return table


def _inverse_roots(q: int, orders) -> dict[int, list[int]]:
    """Per element order m: the list of w^-j mod q for j < m.

    w is the m-th root of unity w0^((q-1)/m), w0 the least primitive root mod q.
    """
    w0 = primitive_root(q)
    return {m: [pow(w0, (q - 1) // m * (m - j), q) for j in range(m)] for m in set(orders)}


def _common_eigenvectors(class_matrix, r, q):
    """One vector on each common eigenline of the class matrices, in F_q^r.

    By column orthogonality the identity-class vector e_0 is sum_chi
    (chi(1)^2 / |G|) omega_chi, and no coefficient vanishes mod q, as q is
    prime to |G|.  So splitting e_0 (``fq.split``) by class matrices 1, 2,
    ... in canonical order, and each component by the next, gives one vector
    per common eigenspace of the matrices built so far: its component there.
    ``class_matrix(i)`` builds the matrix of class i as sparse columns (see
    ``kernels.pure.class_matrix``); it is called only until there are r
    vectors, the number of lines, so matrices the split does not need are
    never built.  Each split orders the components by ascending eigenvalue,
    so the output is deterministic: each line's vector is unique up to a
    scalar, which the caller fixes.  A matrix outside the class algebra
    shows as a minimal polynomial without distinct roots in F_q, or as a
    returned vector that is not an eigenvector of some matrix built, with
    its own coordinate there as its eigenvalue (``_check_eigenvectors``);
    either raises, naming the class.
    """
    vectors = [[1] + [0] * (r - 1)]
    built = []
    for i in range(1, r):
        if len(vectors) >= r:
            break
        columns = class_matrix(i)
        built.append((i, columns))
        parts = []
        for u in vectors:
            try:
                parts += split(columns, u, q)
            except ValueError as exc:
                raise RuntimeError(
                    f"class-matrix eigenspace is not invariant: class {i}: {exc}"
                ) from exc
        vectors = parts
    _check_eigenvectors(built, vectors, q)
    return vectors


def _check_eigenvectors(built, vectors, q: int) -> None:
    """Each vector v must have M v = (v_i / v_0) v for every (i, M) built; else RuntimeError.

    That is v_0 M v = v_i v, with no division.  The products v_0 v_k over
    all the vectors are packed into one integer per coordinate k (``_pack``),
    so each matrix costs one pass over its nonzero entries: row j of the
    image is the sum of c * packed[k] over the entries (j, c) of the columns
    k.  Exact when every slot of that sum stays below 2^width, that is when
    r * (q-1)^2 < 2^width, as the entries and the products are reduced mod q
    first: no slot then carries into the next.  Slots are one machine word
    wide whenever that bound fits in one.
    """
    r, count = len(vectors[0]), len(vectors)
    width = max(64, (r * (q - 1) ** 2).bit_length())
    coords = list(zip(*vectors))  # coords[k] holds coordinate k of every vector
    packed = [_pack([x * v0 % q for x, v0 in zip(c, coords[0])], width) for c in coords]
    for i, columns in built:
        image = [0] * r
        for column, x in zip(columns, packed):
            for j, c in column:
                image[j] += c % q * x
        eigen = coords[i]
        for row, acc in zip(coords, image):
            got = [y % q for y in _slots(acc, width, count)]
            if got != [e * x % q for e, x in zip(eigen, row)]:
                raise RuntimeError(
                    f"class-matrix eigenspace is not invariant: a vector is not an"
                    f" eigenvector of class {i} with its coordinate there as eigenvalue"
                )


def _slots(value: int, width: int, count: int):
    """The count slots of a nonnegative integer packed by ``_pack``, lowest first."""
    if width == 64 and sys.byteorder == "little":  # a machine word per slot: split in C
        return memoryview(value.to_bytes(8 * count, "little")).cast("Q")
    mask = (1 << width) - 1
    return [value >> s & mask for s in range(0, width * count, width)]


def _lift_value(row, roots, q):
    """Exact value at a class g of order m from the F_q values of chi on its powers.

    Used at the classes that are not rational; ``_dixon_schneider`` reads a
    rational class's integer value off its residue, with no Fourier sum.

    ``row[j]`` is chi(g^j) mod q for j < m, so row[0] is the degree, and
    ``roots[j]`` is w^-j mod q (``_inverse_roots``).  The multiplicity of
    w^k among the eigenvalues of the representation at g is
    (1/m) sum_j chi(g^j) w^(-jk) mod q; the multiplicities must add up to
    the degree.  The result depends on nothing but ``row``, since q is fixed
    per table and ``roots`` by m = len(row).
    """
    m = len(row)
    inv_m = pow(m, q - 2, q)
    counts = [
        (sum(x * roots[(j * k) % m] for j, x in enumerate(row)) * inv_m) % q for k in range(m)
    ]
    if sum(counts) != row[0]:
        raise RuntimeError("root-of-unity multiplicities do not add up to the degree")
    return root_sum(m, counts)


def _verify_table(table: CharacterTable) -> None:
    """Every table must pass row orthogonality exactly, or die.

    With X the table and D = diag(|C_i|), the pairing matrix X D conj(X)^t of
    the rows must be |G| I.  Then X^-1 = D conj(X)^t / |G|, so conj(X)^t X =
    |G| D^-1: column orthogonality follows and is not rechecked.  The
    pairing matrix is Hermitian, so ``_pairings`` computes the pairs a <= b
    of the rows with themselves and mirrors the rest.
    """
    G = table.group
    n = G.order
    if len(table.rows) != table.classes.count or sum(d * d for d in table.degrees) != n:
        raise RuntimeError(f"{G.name}: degree squares do not sum to the group order")
    if not all(v == 1 for v in table.rows[0].values):
        raise RuntimeError(f"{G.name}: first irreducible is not the trivial character")
    try:
        gram, _ = _pairings(table.rows)  # embedded once, and not kept
    except NotACharacterError as exc:
        raise RuntimeError(f"{G.name}: {exc}") from exc
    for a, row in enumerate(gram):
        for b, c in enumerate(row):
            if c != (n if a == b else 0):
                raise RuntimeError(f"{G.name}: first orthogonality fails at rows {a},{b}")


# -- exact pairings -----------------------------------------------------------------


class _Embedding:
    """Class functions on one group with their values embedded in Z[zeta_m].

    m is a multiple of every value's stored conductor, which is its least
    one, so (conductor, coordinates) identifies a value, and keys each
    distinct value and its conjugate, which become integer power-basis
    vectors once (``vectors``, ``conjugates``).  A tuple key is
    hashed and compared in C, where a value key would call ``Cyc.__hash__``
    and ``Cyc.__eq__``.  ``top`` bounds every coefficient.  The packed rows
    are kept per slot width, so a table's embedding, which meets many other
    sides, packs its rows once per width.
    """

    __slots__ = ("functions", "basis", "vectors", "conjugates", "top", "_packed")

    def __init__(self, functions, m: int):
        self.functions = functions
        self.basis = basis = power_basis(m)
        self.vectors, self.conjugates = vectors, conjugates = {}, {}
        for f in functions:
            for v in f.values:
                key = v.n, v.coeffs
                if key not in vectors:
                    vectors[key] = basis.substitute(v.coeffs, m // v.n)
                    conjugates[key] = basis.substitute(v.coeffs, -m // v.n)
        # every value may be 0
        self.top = max(1, *(max(map(abs, x + conjugates[k])) for k, x in vectors.items()))
        self._packed: dict[tuple[int, bool], list[list[int]]] = {}

    def embedded(self, i: int) -> list[list[int]]:
        """The embedded values of function i."""
        return [self.vectors[v.n, v.coeffs] for v in self.functions[i].values]

    def packed_rows(self, width: int, conjugate: bool) -> list[list[int]]:
        """Per function, its values or their conjugates packed at this slot width (cached)."""
        rows = self._packed.get((width, conjugate))
        if rows is None:
            source = self.conjugates if conjugate else self.vectors
            forms = {k: _pack(x, width) for k, x in source.items()}
            rows = [[forms[v.n, v.coeffs] for v in f.values] for f in self.functions]
            self._packed[width, conjugate] = rows
        return rows


class _Integers(list):
    """Class functions with integer values, as one list of ints per function.

    Built with ``_Embedding``'s arguments at m = 1, and serves the same
    checks through ``embedded``.
    """

    def __init__(self, functions, m):
        super().__init__([v.coeffs[0] for v in f.values] for f in functions)

    def embedded(self, i: int):
        """The values of function i, each a vector of one coordinate."""
        return [[x] for x in self[i]]


def _pairings(
    functions, table: CharacterTable | None = None
) -> tuple[list[list[int]], tuple]:
    """sum_i |C_i| a(g_i) conj(b(g_i)) for a in functions, all on one group.

    Given a table, b ranges over its rows, whose embedding is built once per
    conductor and kept on the table (``CharacterTable.embedding``).  Without
    one, b ranges over the functions themselves: they are embedded once, and
    only the pairs a <= b are computed, since pairing(b, a) =
    conj(pairing(a, b)), which is pairing(a, b) as each computed entry must
    be rational.  With m the lcm of the two sides' conductors, m = 1 means
    integer values: each side is its rows of ints (``_Integers``) and each
    pairing one dot product.  Otherwise both sides are embedded
    (``_Embedding``) into Z[zeta_m].  Each vector is packed into one int
    (Kronecker substitution, slots wide enough for any coefficient of the
    sum), one big-int product per class gives the polynomial product, and
    the sum over classes is decoded and reduced mod Phi_m once per pair; it
    must be rational, or NotACharacterError.  Returns the pairing matrix, a
    row per function, and the two sides, whose ``embedded`` values serve
    checks that must not go through the packed products.
    """
    G = functions[0].group
    for f in functions:
        check_same_group("pairing", f.group, G)
    m = lcm(*(v.n for f in functions for v in f.values))
    if table is not None:
        check_same_group("pairing", table.group, G)
        m = lcm(m, table.conductor)
    a = (_Embedding if m > 1 else _Integers)(functions, m)
    b = a if table is None else table.embedding(m)
    if m == 1:  # integer values: each pairing is one dot product
        own, conj, decode = a, b, lambda s: (s,)
    else:
        basis = a.basis
        top = max(a.top, b.top)
        width = (2 * G.order * basis.phi * top * top).bit_length()
        own, conj = a.packed_rows(width, False), b.packed_rows(width, True)
        slots = 2 * basis.phi - 1
        decode = lambda s: basis.reduce(_unpack(s, width, slots))
    sizes = conjugacy_classes(G).sizes
    wtd = [list(map(mul, sizes, row)) for row in own]
    mirror = table is None  # then row i is computed from column i on only
    starts = range(len(wtd)) if mirror else [0] * len(wtd)
    sums = [[decode(sum(map(mul, x, y))) for y in conj[start:]] for start, x in zip(starts, wtd)]
    if any(any(c[1:]) for row in sums for c in row):
        raise NotACharacterError("a pairing is not rational")
    pairings = [[c[0] for c in row] for row in sums]
    if mirror:  # pairing (i, j) with j < i is computed row j, entry i - j
        pairings = [[pairings[j][i - j] for j in range(i)] + pairings[i] for i in range(len(wtd))]
    return pairings, (a, b)


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


def fusion_map(H: Subgroup) -> tuple[int, ...]:
    """The parent class of each class of the subgroup view (cached)."""
    if H._fusion is None:
        parent_classes = conjugacy_classes(H.parent)
        view_classes = conjugacy_classes(H.view)
        H._fusion = tuple(
            parent_classes.class_of_perm(view_classes.rep(i)) for i in range(view_classes.count)
        )
    return H._fusion


def restrict(chi: ClassFunction, H: Subgroup) -> ClassFunction:
    """Restriction to a subgroup, read through the fusion map."""
    check_same_group("restrict", chi.group, H.parent)
    return ClassFunction(H.view, (chi.values[c] for c in fusion_map(H)))


def induce(theta: ClassFunction, H: Subgroup) -> ClassFunction:
    """Induced class function on the parent group, through the fusion map.

    theta^G(g_k) is the sum of |C_G(h)| / |C_H(h)| theta(c) over the classes
    c of H that fuse into the class C_k of G, for h in c.  That index is the
    integer |G| |c| / (|H| |C_k|); a remainder can only come from a wrong
    fusion map or class size, an engine fault: RuntimeError with the sizes.
    """
    G = H.parent
    check_same_group("induce", theta.group, H.view)
    parent_sizes = conjugacy_classes(G).sizes
    values = [Cyc.zero()] * len(parent_sizes)
    for size, k, value in zip(conjugacy_classes(H.view).sizes, fusion_map(H), theta.values):
        index, rem = divmod(G.order * size, H.order * parent_sizes[k])
        if rem:
            raise RuntimeError(
                f"induce: the centralizer index {G.order * size}/{H.order * parent_sizes[k]}"
                f" of class {k} is not an integer"
            )
        values[k] = values[k] + index * value
    return ClassFunction(G, values)


def mul_classfn(a: ClassFunction, b: ClassFunction) -> ClassFunction:
    check_same_group("mul_classfn", a.group, b.group)
    return ClassFunction(a.group, (x * y for x, y in zip(a.values, b.values)))


def _multiplicity(pairing: int, n: int, what: str) -> int:
    """pairing / n, which must be an integer; the error shows it as p/q in lowest terms."""
    m, rem = divmod(pairing, n)
    if rem:
        g = gcd(pairing, n)
        raise NotACharacterError(f"{what} is {pairing // g}/{n // g}; not an integer")
    return m


def constituents(f: ClassFunction) -> list[tuple[int, int]]:
    """(row index, multiplicity) pairs; errors unless f is a genuine character."""
    (pairings,), (target, rows) = _pairings([f], character_table(f.group))
    out = []
    for i, c in enumerate(pairings):
        m = _multiplicity(c, f.group.order, f"multiplicity of row {i}")
        if m < 0:
            raise NotACharacterError(f"multiplicity of row {i} is {m}; not a character")
        if m:
            out.append((i, m))
    # f = sum m_i chi_i holds for every class function, so a mismatch here
    # means the pairings were decoded wrongly.
    row_vectors = {i: rows.embedded(i) for i, _ in out}
    for k, want in enumerate(target.embedded(0)):
        got = [sum(m * row_vectors[i][k][j] for i, m in out) for j in range(len(want))]
        if got != want:
            raise RuntimeError(f"constituents of f do not reconstruct its value at class {k}")
    return out


def lying_over(N: Subgroup, theta: ClassFunction) -> list[int]:
    """Rows chi of Irr(G), G = N.parent, with <chi_N, theta> != 0 (N normal, theta a character).

    By Frobenius reciprocity <chi_N, theta> = <chi, theta^G>, so these are
    the constituents of the induced character: one decomposition against the
    cached embedding of G's table, with the same integrality checks.
    """
    if not is_normal(N.parent, N):
        raise ValueError("lying_over: N is not normal")
    return [i for i, _ in constituents(induce(theta, N))]


def conjugate_classfn(theta: ClassFunction, N: Subgroup, g: pm.Perm) -> ClassFunction:
    """theta^g on the same view: (theta^g)(x) = theta(g x g^-1).

    A reindex through the class action of g, which the view's classes cache.
    """
    view = N.view
    check_same_group("conjugate_classfn", theta.group, view)
    values = theta.values
    return ClassFunction(view, (values[c] for c in conjugacy_classes(view).action_of(g)))


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
