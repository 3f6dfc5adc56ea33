import pytest

from hypothesis import given, settings

from qpfiber.braidcore import BandRepresentation, EmbeddedBand, beta, permutation_cycles
from qpfiber.constructions import nabla, q_rep
from qpfiber.errors import InternalError, InvalidParameter
from qpfiber.graphcalc import neighborhood_summary
from qpfiber.surface import (
    BraidedSurface,
    SurfaceSummary,
    euler_characteristic,
    handle_spine,
    summary,
)

from conftest import band_representations


def surf(rep):
    return BraidedSurface(rep)


def test_euler_characteristic_examples():
    assert euler_characteristic(surf(BandRepresentation(1, ()))) == 1
    assert euler_characteristic(surf(q_rep(3))) == -3
    assert euler_characteristic(surf(nabla(3))) == -3


def test_summary_examples():
    two_disks = summary(surf(BandRepresentation(2, ())))
    assert two_disks.components == ((1, 1), (1, 1))

    hopf = summary(surf(BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1)))))
    assert hopf.components == ((0, 2),)

    fiber = summary(surf(nabla(3)))
    assert fiber.components == ((-3, 3),)


def test_summary_validation():
    with pytest.raises(InvalidParameter):
        SurfaceSummary(0, ((1, 1),))  # wrong total
    with pytest.raises(InvalidParameter):
        SurfaceSummary(2, ((2, 1),))  # chi > 1
    with pytest.raises(InvalidParameter):
        SurfaceSummary(1, ((1, 0),))  # closed component
    with pytest.raises(InvalidParameter):
        SurfaceSummary(0, ((0, 1),))  # non-orientable (chi, boundary) pair


def test_summary_of_a_complex():
    # an annulus (two nodes, two edges, two circles) beside an edgeless node, a disk
    annulus = SurfaceSummary.of_complex("abc", [("a", "b"), ("b", "a")], [["a", "b"], ["b", "a", "b"]])
    assert annulus == SurfaceSummary(1, ((0, 2), (1, 1)))
    with pytest.raises(InternalError, match="2 components"):
        SurfaceSummary.of_complex("abc", [("a", "b")], [["a", "b", "c"]])


def test_handle_spine_full_selection_covers_surface():
    surface = surf(nabla(2))
    spine = handle_spine(surface, (1, 2))
    assert neighborhood_summary(spine) == summary(surface)


def test_handle_spine_empty_selection():
    spine = handle_spine(surf(nabla(3)), ())
    assert neighborhood_summary(spine).components == ((1, 1),) * 3


def test_handle_spine_marked_subword():
    # handles {1, 4, 5} of nabla_3 carry the letters s1, s2, s1
    spine = handle_spine(surf(nabla(3)), (1, 4, 5))
    word_surface = surf(
        BandRepresentation(3, (EmbeddedBand(1, 2, 1), EmbeddedBand(2, 3, 1), EmbeddedBand(1, 2, 1)))
    )
    assert neighborhood_summary(spine) == summary(word_surface)


def test_handle_spine_rejects_out_of_range():
    with pytest.raises(InvalidParameter):
        handle_spine(surf(nabla(2)), (3,))


@pytest.mark.parametrize("selected", [(1.7,), ("2",), (True,), (1, True), (2.0,)])
def test_handle_spine_rejects_a_handle_that_is_not_an_int(selected):
    with pytest.raises(InvalidParameter, match="is not an integer"):
        handle_spine(surf(nabla(2)), selected)


@given(band_representations())
@settings(max_examples=60)
def test_chi_equals_summary_total(rep):
    assert euler_characteristic(surf(rep)) == summary(surf(rep)).total_chi


@given(band_representations())
@settings(max_examples=60)
def test_boundary_total_is_cycle_count(rep):
    total = sum(b for _, b in summary(surf(rep)).components)
    assert total == len(permutation_cycles(beta(rep)))


@given(band_representations(max_bands=5))
@settings(max_examples=60)
def test_joining_band_merges_components(rep):
    base = summary(surf(rep))
    parts = {}
    # find two strands in different components, if any
    roots = {}
    parent = list(range(rep.strands + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for band in rep.bands:
        ri, rj = find(band.i), find(band.j)
        if ri != rj:
            parent[ri] = rj
    pair = None
    for i in range(1, rep.strands + 1):
        for j in range(i + 1, rep.strands + 1):
            if find(i) != find(j):
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        return
    joined = BandRepresentation(rep.strands, rep.bands + (EmbeddedBand(pair[0], pair[1], 1),))
    after = summary(surf(joined))
    assert len(after.components) == len(base.components) - 1
    assert after.total_chi == base.total_chi - 1
