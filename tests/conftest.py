import pytest

from sfmew import MoebiusStructure

# The three reference structures on the flat plane (u = 0, K = 0):
# spiral:     P_ab built from x_(a eps_b)c x^c  -> obstructed everywhere
# quadratic:  P_ab = x_a x_b - r/2 delta_ab    -> admits F = -/+ 2
# opposite:   P_ab = r/2 delta_ab - x_a x_b    -> vanishing obstructions, no real solution


@pytest.fixture(scope="session")
def spiral_structure():
    return MoebiusStructure.from_strings("0", "x*y", "(y*y - x*x)/2", "-(x*y)")


@pytest.fixture(scope="session")
def quadratic_structure():
    return MoebiusStructure.from_strings("0", "(x*x - y*y)/2", "x*y", "(y*y - x*x)/2")


@pytest.fixture(scope="session")
def opposite_structure():
    return MoebiusStructure.from_strings("0", "(y*y - x*x)/2", "-(x*y)", "(x*x - y*y)/2")


# one structure whose nodes mix every branch of the invariant chain: (0, 0) is
# flat, (0, 1) has sigma = 0 exactly, (1, 0.5) has sigma < 0, and (-1, 0.5)
# and (-1.2, -0.3) have sigma > 0
@pytest.fixture(scope="session")
def mixed_structure():
    return MoebiusStructure.from_strings("0", "x*y + 0.3*x*x*x", "(y*y - x*x)/2",
                                         "-(x*y + 0.3*x*x*x)")
