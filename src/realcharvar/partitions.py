"""Partition combinatorics: the indexing backbone for every formula.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ().  multiplicities reads off the multiplicity encoding
(1^m1 2^m2 ...) as a dict; nothing converts it back to parts.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def all_partitions(n):
    "All partitions of n in descending lexicographic order."
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ((),)
    out = []
    r = (n,)
    out.append(r)
    while True:
        i = len(r) - 1
        while i >= 0 and r[i] == 1:
            i -= 1
        if i < 0:
            break
        rest = len(r) - i
        r = r[:i] + (r[i] - 1,)
        while rest > 0:
            nxt = min(r[-1], rest)
            r += (nxt,)
            rest -= nxt
        out.append(r)
    return tuple(out)


def weight(lam):
    return sum(lam)


def conjugate(lam):
    "Transpose of the Young diagram; an involution."
    if not lam:
        return ()
    cols = [0] * lam[0]
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def multiplicities(lam):
    "Multiplicity encoding as a dict {part value d: m_d}."
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    return mult


def n_lambda(lam):
    "The weighted row statistic sum of (i-1)*lambda_i."
    return sum(i * part for i, part in enumerate(lam))


def hooks(lam):
    "Hook lengths of all boxes, as a descending-sorted list."
    conj = conjugate(lam)
    out = []
    for i, part in enumerate(lam):
        for j in range(part):
            out.append(part - j + conj[j] - i - 1)
    return sorted(out, reverse=True)


def centralizer_order(lam, q):
    """The centralizer order of a unipotent-type class with partition lam at
    a prime power q, in ints: q^(|lam| + 2 n_lam - sum_d m_d(m_d+1)/2)
    * prod_d prod_{i<=m_d} (q^i - 1)."""
    mult = multiplicities(lam).values()
    total = q ** (weight(lam) + 2 * n_lambda(lam)
                  - sum(m * (m + 1) // 2 for m in mult))
    for m in mult:
        for i in range(1, m + 1):
            total *= q ** i - 1
    return total


@lru_cache(maxsize=None)
def partition_count(n):
    "p(n) via Euler's pentagonal-number recurrence."
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            s = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += s * table[m - g1]
            if g2 <= m:
                total += s * table[m - g2]
            k += 1
        table[m] = total
    return table[n]
