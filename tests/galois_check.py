"""Galois equivariance of the star map, checked from the tests.

No command of the CLI runs this check, so it lives beside the tests that
use it rather than in the package: every CLI process would otherwise
compile it without calling it.  ``galois_classfn`` applies zeta -> zeta^k to
every value of a class function; ``check_galois_equivariance`` requires
(chi^sigma)* = (chi*)^sigma for every sigma in Gal(Q(zeta_e)/Q), e the
exponent of G.  ``check_galois_is_power_map`` checks that substitution
against the classes' power map: chi^sigma_k(g) = chi(g^k).
"""

from math import gcd

from charcorr.chartab import CharacterTable, ClassFunction, character_table, p_prime_irreducibles
from charcorr.common import FalsificationError
from charcorr.mckay import _require, is_p_solvable, navarro_star
from cyclotomic_reference import galois


def galois_classfn(f: ClassFunction, k: int) -> ClassFunction:
    """Apply the Galois map zeta -> zeta^k to every value."""
    return ClassFunction(f.group, (galois(v, k) for v in f.values))


def check_galois_is_power_map(table: CharacterTable) -> int:
    """galois_classfn(chi, k) is chi read through pi_k, for every row and k prime to exp(G).

    pi_k sends class i to powers[i][k % orders[i]], the class of g^k for g
    its representative.  The substitution zeta -> zeta^k that
    ``galois_classfn`` applies value by value is computed once per distinct
    value of the table.  Returns the number of (k, chi) pairs checked; any
    mismatch raises.
    """
    classes = table.classes
    e = table.group.exponent
    values = {v for row in table.rows for v in row.values}
    checked = 0
    for k in range(1, e + 1):
        if gcd(k, e) != 1:
            continue
        sigma_k = {v: galois(v, k) for v in values}
        pi_k = [powers[k % len(powers)] for powers in classes.powers]
        for ci, row in enumerate(table.rows):
            if tuple(map(sigma_k.get, row.values)) != tuple(row.values[c] for c in pi_k):
                raise AssertionError(f"{table.group.name}: row {ci} at k={k} is not chi o pi_k")
            checked += 1
    return checked


def check_galois_equivariance(inst) -> int:
    """(chi^sigma)* = (chi*)^sigma for every Galois map of Q(zeta_exp(G)).

    Returns the number of (sigma, chi) pairs checked; any mismatch raises.
    """
    _require(inst.self_normalizing, "equivariance check needs the star map hypotheses")
    _require(is_p_solvable(inst.group, inst.p), "equivariance check needs a p-solvable group")
    G = inst.group
    e = G.exponent
    table = character_table(G)
    p_table = character_table(inst.sylow.view)
    p_rows = p_prime_irreducibles(table, inst.p)
    stars = {ci: navarro_star(inst, ci) for ci in p_rows}
    checked = 0
    for k in range(1, e + 1):
        if gcd(k, e) != 1:
            continue
        for ci in p_rows:
            sigma_chi = table.index_of(galois_classfn(table.rows[ci], k))
            lhs = stars[sigma_chi]
            rhs = p_table.index_of(galois_classfn(p_table.rows[stars[ci]], k))
            if lhs != rhs:
                raise FalsificationError(
                    "star map is not Galois equivariant",
                    group=G.name,
                    k=k,
                    chi=ci,
                    lhs=lhs,
                    rhs=rhs,
                )
            checked += 1
    return checked
