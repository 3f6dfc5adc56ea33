"""Output checkers that share no code path with qpfiber.

Everything here works on plain integers and lists: polynomials are
coefficient lists (constant term first), representations are
``(strands, [(i, j, sign), ...])``.  The checkers return a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations


# -- integer polynomials ---------------------------------------------------


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def canonical(coeffs: list[int]) -> list[int]:
    """Drop zero ends, then fix the sign so the lowest coefficient is positive."""
    lo = next((k for k, c in enumerate(coeffs) if c), None)
    if lo is None:
        return [0]
    hi = max(k for k, c in enumerate(coeffs) if c)
    trimmed = list(coeffs[lo : hi + 1])
    return trimmed if trimmed[0] > 0 else [-c for c in trimmed]


def torus_link_alexander(n: int) -> list[int]:
    """Closed form for T(n, n): (1 - t)(1 - t^n)^(n-2), canonical."""
    poly = [1, -1]
    factor = [1] + [0] * (n - 1) + [-1]
    for _ in range(n - 2):
        poly = poly_mul(poly, factor)
    return canonical(poly)


# -- stand-alone surface summary ------------------------------------------


def expanded_letters(bands) -> list[tuple[int, int]]:
    """Band (i, j, e) as s_i .. s_{j-2} s_{j-1}^e s_{j-2}^-1 .. s_i^-1."""
    letters = []
    for i, j, sign in bands:
        letters.extend((c, 1) for c in range(i, j - 1))
        letters.append((j - 1, sign))
        letters.extend((c, -1) for c in range(j - 2, i - 1, -1))
    return letters


def closure_cycles(strands: int, bands) -> list[list[int]]:
    """Cycles of the strand permutation of the expanded word."""
    position = list(range(strands + 1))  # position[p] = strand now at p
    for i, _ in expanded_letters(bands):
        position[i], position[i + 1] = position[i + 1], position[i]
    image = [0] * (strands + 1)
    for p in range(1, strands + 1):
        image[position[p]] = p
    seen = [False] * (strands + 1)
    cycles = []
    for start in range(1, strands + 1):
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = image[x]
        if cycle:
            cycles.append(cycle)
    return cycles


def components(strands: int, bands) -> list[int]:
    """Union-find root of every strand 1..strands (index 0 unused)."""
    parent = list(range(strands + 1))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in bands:
        parent[root(i)] = root(j)
    return [root(x) for x in range(strands + 1)]


def surface_summary(strands: int, bands) -> list[list[int]]:
    """Sorted per-component [chi, boundary circles] of the braided surface."""
    roots = components(strands, bands)
    chi: dict[int, int] = {}
    boundary: dict[int, int] = {}
    for s in range(1, strands + 1):
        chi[roots[s]] = chi.get(roots[s], 0) + 1
    for i, _, _ in bands:
        chi[roots[i]] -= 1
    for cycle in closure_cycles(strands, bands):
        boundary[roots[cycle[0]]] = boundary.get(roots[cycle[0]], 0) + 1
    return sorted([chi[r], boundary.get(r, 0)] for r in chi)


def is_connected(strands: int, bands) -> bool:
    return len(set(components(strands, bands)[1:])) == 1


# -- properties of the Alexander polynomial -------------------------------


def alexander_problems(seifert: list[int], burau: list[int], link_components: int) -> list[str]:
    """Route agreement, symmetry, and the value at t = 1."""
    problems = []
    s, b = canonical(seifert), canonical(burau)
    if s != b:
        problems.append(f"Seifert route {s} != Burau route {b}")
    if canonical(s[::-1]) != s:
        problems.append(f"Delta(t) is not Delta(1/t) up to units: {s}")
    at_one = sum(s)
    if link_components == 1 and abs(at_one) != 1:
        problems.append(f"knot with Delta(1) = {at_one}")
    if link_components > 1 and at_one != 0:
        problems.append(f"{link_components}-component link with Delta(1) = {at_one}")
    return problems


def fiber_invariants_problems(n: int, result: dict) -> list[str]:
    """The `invariants` report of q_rep(n) against the (n, n) torus link fiber."""
    chi = 1 - (n - 1) ** 2
    want = {
        "chi": chi,
        "components": 1,
        "boundary": n,
        "exponent_sum": 2 * (n - 1) ** 2,
        "alexander": torus_link_alexander(n),
        "summary": {"chi": chi, "components": [[chi, n]]},
    }
    return [f"{key} {result.get(key)} != {value}" for key, value in want.items() if result.get(key) != value]


def verify_fiber_problems(n: int, result: dict) -> list[str]:
    chi = 1 - (n - 1) ** 2
    want = {
        "n": n,
        "chi": {"q": chi, "nabla": chi},
        "closure_components": {"q": n, "nabla": n},
        "alexander_agree": True,
        "ok": True,
    }
    return [f"{key} {result.get(key)} != {value}" for key, value in want.items() if result.get(key) != value]
