"""The dense-matrix Weyl group: a test-only oracle for ``dischar.weyl``.

The group is closed by BFS over products of the simple-reflection matrices
on fundamental-weight coordinates, keyed by the matrix itself, so it shares
no code with ``generate``'s closure on w(rho).
"""

from operator import mul


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a, b):
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def apply(matrix, vec):
    return tuple(sum(map(mul, row, vec)) for row in matrix)


def simple_reflection_matrices(cartan):
    # (s_i lam)_k = lam_k - lam_i C[k][i]
    n = len(cartan)
    return [
        tuple(
            tuple(int(k == m) - (cartan[k][i] if m == i else 0) for m in range(n))
            for k in range(n)
        )
        for i in range(n)
    ]


def matrix_closure(cartan):
    """Matrix -> first shortest word, by BFS over matrix products keyed by matrix."""
    gens = simple_reflection_matrices(cartan)
    found = {identity(len(cartan)): ()}
    frontier = list(found)
    while frontier:
        new_frontier = []
        for m in frontier:
            for i, g in enumerate(gens):
                product = matmul(m, g)
                if product not in found:
                    found[product] = found[m] + (i,)
                    new_frontier.append(product)
        new_frontier.sort(key=found.__getitem__)
        frontier = new_frontier
    return found


def matrix_inversion_count(rs, matrix):
    positive = {alpha.fw_coords for alpha in rs.positive_roots}
    count = 0
    for alpha in rs.positive_roots:
        image = apply(matrix, alpha.fw_coords)
        assert image in positive or tuple(-c for c in image) in positive
        count += tuple(-c for c in image) in positive
    return count


def word_matrix(cartan, word):
    """The product of the simple-reflection matrices of ``word``, left to right."""
    gens = simple_reflection_matrices(cartan)
    product = identity(len(cartan))
    for i in word:
        product = matmul(product, gens[i])
    return product


def word_matrices(cartan, words):
    """word -> :func:`word_matrix` for each of ``words``, each its prefix's times one generator."""
    gens = simple_reflection_matrices(cartan)
    matrices = {(): identity(len(cartan))}

    def matrix_of(word):
        if word not in matrices:
            matrices[word] = matmul(matrix_of(word[:-1]), gens[word[-1]])
        return matrices[word]

    return {word: matrix_of(word) for word in words}
