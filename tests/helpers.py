"""Test-side stand-ins for conveniences the library does not carry.

The library keeps what its commands, ``verify`` and the benchmark call.
These rebuild the rest from its public names, the way ``matrix_oracle``
rebuilds the dense closure.
"""

from dischar import Weight, act


def compose(group, a, b):
    """The element of ``group`` equal to a after b: a(b(rho)) looked up in ``by_rho``."""
    return group.by_rho[act(a, Weight(b.rho_image)).coords]


def simple_reflections(group):
    """s_1, ..., s_n: the elements of length one, in generator order."""
    return group.elements[1:group.rank + 1]


def length_fiber(group, p):
    """The elements of length p in ``elements`` order."""
    return tuple(w for w in group.elements if w.length == p)


def scaled(weight, factor):
    """factor * weight, for an int or Fraction factor."""
    return Weight([c * factor for c in weight.coords])
