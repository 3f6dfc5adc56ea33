"""CLI reports, Seifert matrices and cycle words keep their exact bytes.

`PINNED` holds the sha256 digests of the stdout of `qpfiber reduce` and
`qpfiber quasipositize`, reading the graph from stdin, on twenty seeded
graphs: ten from `sampling.random_full_graph` (reduce only; their hosts are
not S(q_n)) and ten handle spines of S(q_4) and S(q_5) grown by inverse
Whitehead moves (both verbs).  They were recorded before the indexed graph
and its edit primitive replaced the rescanning code, so any change in a
trace, a graph or an output band shows here.  The report echoes the digest
of the input, so a change in the samplers shows too.

`PINNED_DOCUMENTS`, `PINNED_SEIFERT` and `PINNED_CYCLE_WORDS` were recorded
before the arc pairing (now `_Ends.mate`) and the spanning forest
(`braidcore.fundamental_cycles`) each got one implementation: the stdout of
`invariants`, `pad` and `expand` on seeded documents, the entries of
`seifert_matrix` on 100 seeded representations and on q_rep(n) and
nabla(n) for n = 2..5, and `cycle_words` on 50 seeded graphs.  A different
forest, cycle order or traversal direction changes them.  The Seifert pins
of q_rep(6), nabla(6) and of 50 seeded representations on 6-7 strands with
6-10 bands (`sweep-range`) were recorded while the PL model still used
rational coordinates, before it moved to one integer lattice per surface.

`PINNED_ALEXANDER` and `PINNED_ARITHMETIC` were recorded while
`LaurentPolynomial` still stored a sparse exponent -> coefficient dict,
before it moved to a trimmed coefficient tuple and its lowest exponent:
`coefficient_list()` of both Alexander routes on 100 seeded signed
representations (up to 7 strands and 10 bands) and on q_rep(n) and nabla(n)
for n = 2..6, and the `repr` of 20 seeded products and the quotients taken
from them (a quotient that is not exact reads "NonExactDivision").

`PINNED_BURAU` was recorded while `reduced_burau` still multiplied by a
whole generator matrix per letter, before it moved to one column update
per letter, and while it still returned a tuple of tuples of
`LaurentPolynomial` entries: the `repr` of that matrix on beta(q_rep(k))
and beta(nabla(k)) for k = 2..6 and on 50 seeded signed words on 2-8
strands.  `reduced_burau` now returns rows of {exponent: coefficient}
dicts, so `_burau_digest` reads each entry as a polynomial through `_poly`
and takes the `repr` of the same tuples.

`PINNED_NUMBERING` and `PINNED_GROWN_SPINES` were recorded before each
combed graph got one arc-end numbering, shared by validation, face tracing
and the Whitehead working copy: the stdout of `reduce` on ten seeded full
graphs with free ends, and of `quasipositize` on six graphs whose reduced
form keeps a middle comb around a nested dead end (`_numbering_cases`); and
the `quasipositize` JSON of the grown spines of S(q_2..5), seeds 0-39
(`_grown_q_spine`).  Over seeds 0-399 the same reading hashes to
bd70602d..., the digest first recorded for that family.

`PINNED_PROBLEMS` was recorded while `validate` still checked the teeth of
a graph in a walk of its own, before that walk was folded into the arc-end
numbering: the `validate` problem lists, in order, of the 400 mutated
documents of `test_graph_fuzz` (refused or not) and of the
`random_direct_graph` graphs that `validate` refuses among 200 seeded
draws (`_problem_lists`).

`PYTHONPATH=src python tests/test_byte_identity.py` prints the digests of
the checkout it runs in.
"""

import contextlib
import hashlib
import io
import json
import random
import sys

from qpfiber.braidcore import BraidWord, beta
from qpfiber.cli import run
from qpfiber.constructions import nabla, q_rep
from qpfiber.graphcalc import cycle_words, validate
from qpfiber.qpize import quasipositize
from qpfiber.errors import NonExactDivision
from qpfiber.invariants import (
    LaurentPolynomial,
    alexander_from_braid,
    alexander_from_seifert,
    reduced_burau,
    seifert_matrix,
)
from qpfiber.sampling import (
    inverse_whitehead,
    random_band_representation,
    random_direct_graph,
    random_fine_handle_subset,
    random_full_graph,
    random_graph_mixed_fullness,
)
from qpfiber.surface import BraidedSurface, handle_spine

from conftest import nested_partition_graph, with_free_ends
from test_graph_fuzz import mutant, unchecked


def _cases():
    rng = random.Random(20631)
    for _ in range(10):
        graph = random_full_graph(rng, max_strands=5, max_bands=6, max_arcs=24, expansions=12)
        yield ["reduce", "--input", "-"], graph
    for trial in range(10):
        n = 4 if trial % 2 == 0 else 5
        graph = handle_spine(BraidedSurface(q_rep(n)), random_fine_handle_subset(rng, 2 * (n - 1) ** 2))
        for _ in range(rng.randint(4, 16)):
            bands = [t for t in range(1, graph.host.band_count() + 1) if graph.arc_count(t)]
            if not bands:
                break
            band = rng.choice(bands)
            hostband = graph.host.bands[band - 1]
            near = rng.choice((hostband.i, hostband.j))
            graph = inverse_whitehead(graph, band, rng.randrange(graph.arc_count(band)), near)
        yield ["reduce", "--input", "-"], graph
        yield ["quasipositize", "--n", str(n), "--input", "-"], graph


# (n, seed) of `nested_partition_graph` graphs that quasipositize drops dead ends from
NESTED_DEAD_END_SEEDS = [(2, 64), (2, 107), (2, 159), (2, 193), (3, 1711), (3, 1866)]


def _numbering_cases():
    rng = random.Random(20711)
    for _ in range(10):
        graph = random_full_graph(rng, max_strands=5, max_bands=6, max_arcs=24, expansions=12)
        yield ["reduce", "--input", "-"], with_free_ends(graph, rng)
    for n, seed in NESTED_DEAD_END_SEEDS:
        yield ["quasipositize", "--n", str(n), "--input", "-"], nested_partition_graph(random.Random(seed), n)


def _grown_q_spine(seed):
    """The grown-spine family: a fine-handle spine of S(q_n), n = 2 + seed % 4, and up to 25 doublings.

    Each doubling draws a band with arcs, a slot, then the near disk.
    """
    rng = random.Random(seed)
    n = 2 + seed % 4
    graph = handle_spine(BraidedSurface(q_rep(n)), random_fine_handle_subset(rng, 2 * (n - 1) ** 2))
    for _ in range(rng.randint(0, 25)):
        bands = [t for t in range(1, graph.host.band_count() + 1) if graph.arc_count(t)]
        if not bands:
            break
        band = rng.choice(bands)
        slot = rng.randrange(graph.arc_count(band))
        hostband = graph.host.bands[band - 1]
        graph = inverse_whitehead(graph, band, slot, rng.choice((hostband.i, hostband.j)))
    return n, graph


def _grown_spines_digest(seeds) -> str:
    """sha256 of the `quasipositize` JSON, keys sorted, of each grown spine, joined."""
    docs = (json.dumps(quasipositize(*_grown_q_spine(seed)).to_json(), sort_keys=True) for seed in seeds)
    return hashlib.sha256("".join(docs).encode()).hexdigest()


def _document_cases():
    rng = random.Random(20641)
    reps = [random_band_representation(rng, 5, 6, min_strands=2, min_bands=1) for _ in range(4)]
    for rep in reps + [q_rep(3)]:
        yield ["invariants", "--input", "-"], rep
    for _ in range(4):
        n = rng.randint(2, 5)
        word = BraidWord(n, tuple((rng.randint(1, n - 1), 1) for _ in range(rng.randint(1, 6))))
        yield ["pad", "--input", "-"], word
    for _ in range(4):
        rep = random_band_representation(rng, 5, 5, positive_only=True, min_strands=2, min_bands=1)
        yield ["expand", "--input", "-"], rep


def _seifert_cases():
    rng = random.Random(20642)
    yield "seeded", [random_band_representation(rng, 5, 7, min_strands=2) for _ in range(100)]
    for n in range(2, 7):
        yield f"q_rep({n})", [q_rep(n)]
        yield f"nabla({n})", [nabla(n)]
    rng = random.Random(20671)
    yield "sweep-range", [
        random_band_representation(rng, 7, 10, min_strands=6, min_bands=6) for _ in range(50)
    ]


def _cycle_graphs():
    """The twenty graphs of `_cases`, the full spine of S(q_5), 29 of mixed fullness."""
    graphs = [graph for argv, graph in _cases() if argv[0] == "reduce"]
    graphs.append(handle_spine(BraidedSurface(q_rep(5)), range(1, 33)))
    rng = random.Random(20643)
    for trial in range(29):
        if trial % 2:
            graph = random_direct_graph(rng)
            while validate(graph):
                graph = random_direct_graph(rng)
        else:
            graph = random_graph_mixed_fullness(rng)
        graphs.append(graph)
    return graphs


def _alexander_cases():
    rng = random.Random(20681)
    yield "seeded", [random_band_representation(rng, 7, 10, min_strands=2) for _ in range(100)]
    for n in range(2, 7):
        yield f"q_rep({n})", [q_rep(n)]
        yield f"nabla({n})", [nabla(n)]


def _alexander_lists(reps):
    return [
        [
            alexander_from_braid(beta(rep)).coefficient_list(),
            alexander_from_seifert(seifert_matrix(rep)).coefficient_list(),
        ]
        for rep in reps
    ]


def _burau_cases():
    for n in range(2, 7):
        yield f"q_rep({n})", [beta(q_rep(n))]
        yield f"nabla({n})", [beta(nabla(n))]
    rng = random.Random(20691)
    words = []
    for _ in range(50):
        n = rng.randint(2, 8)
        letters = tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 24)))
        words.append(BraidWord(n, letters))
    yield "seeded", words


def _burau_digest(words) -> str:
    matrices = [tuple(tuple(_poly(entry) for entry in row) for row in reduced_burau(word)) for word in words]
    return hashlib.sha256(repr(matrices).encode()).hexdigest()


def _poly(terms: dict) -> LaurentPolynomial:
    low = min(terms, default=0)
    return LaurentPolynomial([terms.get(e, 0) for e in range(low, max(terms, default=-1) + 1)], low)


def _random_terms(rng) -> dict:
    low = rng.randint(-4, 3)
    return {e: rng.randint(-3, 3) for e in range(low, low + rng.randint(0, 5)) if rng.random() < 0.7}


def _arithmetic_reprs():
    rng = random.Random(20682)
    out = []
    for _ in range(20):
        p, q = _poly(_random_terms(rng)), _poly(_random_terms(rng))
        product = p * q
        row = [repr(p), repr(q), repr(product)]
        for num, den in ((product, q), (product, p), (p, q)):
            try:
                row.append(repr(num.exact_div(den)))
            except NonExactDivision:
                row.append("NonExactDivision")
        out.append(row)
    return out


def _problem_lists():
    lists = [validate(unchecked(mutant(random.Random(seed), seed)[0])) for seed in range(400)]
    rng = random.Random(20721)
    return lists + [problems for _ in range(200) if (problems := validate(random_direct_graph(rng)))]


def _json_digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _stdout_digest(argv, document) -> str:
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(document.to_json()))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run(argv)
    finally:
        sys.stdin = stdin
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


PINNED = [
    "094fb67bfa3bb6abb9b2a419fb80d4c034eca115fd7d230e82e6b5212997e121",  # reduce
    "8d5140b730517d728152ecf6fc54ba033b28edc8998978f23017e8ff4e74d969",  # reduce
    "8cb3ac31a336ab0f38c33635358290a7f92c23b62c5315739a443c72f0c53826",  # reduce
    "9905346dd2d3f581c61e74e1c60dd1ea972d2bbf88184d868eeebe593b782ae1",  # reduce
    "c016bf9abfd17cb356de5e90f3ff2ce9f109d7f282fffa6fb7259c7d603d0017",  # reduce
    "c9b92c90717a942e943fc175b4a663aad40d2852269824965245e26fde496dc6",  # reduce
    "3f0bc899d88477d84eb839de73063a2a9699f8bd54d49d4f5a11e62303201b9b",  # reduce
    "36c4d2083f27d523f14a9259a6023f5caf982b59f28a6b91840572911e422133",  # reduce
    "74814a1f5dd562778a08951ed98cef8ec912f42b27de189001b0097c290c64cf",  # reduce
    "2a70f56fa4759f56fbb38a766f37881671f241982269d857e5ee01ab3c944796",  # reduce
    "5c3f77dfd8e26e0a3bdfb65c35688a5bb36c958df73089601650017f085c8c20",  # reduce
    "c4d39a85653f2bf63d6e9b66cb88dfdafe8562b4aa5d1efed594278413be07a3",  # quasipositize
    "fd581fe042b66dd3571d1b2f3b06071588958b5732f7e853979394bfc73539ec",  # reduce
    "d895fa4f31e32df495a0df95c15a393f26bd8396d913322563b7db1b498d0833",  # quasipositize
    "2b9cc7850b80a276af6bc9950dd0f014b9b3d4745b6b8d5a19ba9f8ed967c80c",  # reduce
    "e4f690e1fd62e1cff25237ed220c99150adf0c398e8d381fddc9a9d105ceeaeb",  # quasipositize
    "b0384e9c6f597f4e9874bf6a718428c9d6eb62c3bee3fc6f039ac80617f6d060",  # reduce
    "93ee7f0da733fa9aece256a20794c456b4b02d80cf5d7109d966fcd2d454aea8",  # quasipositize
    "f27fa17466d319089ff12e054575cfbbcfeda10f4455e1da217f4feeb58197b8",  # reduce
    "18d63a7dc7f2d21315de3946645fa7f8136e9a981b98e76762e8662aeafc06aa",  # quasipositize
    "48c7a7fbdad7a9af16da0b9f9ba426ce9cd837063a064c5722b0cffb3d44f303",  # reduce
    "952070c52242b6ba6383ef4069bd402b7263bdd9c8b99f7ea064b7c205c14c08",  # quasipositize
    "39b33cdfa4380db40849cd5b8c1b87dd88e40edde8cde9dcfcd5c7537dfb90b7",  # reduce
    "d5e85358aa82f5deff1f1a32f0ee38f888fc599dd9e4534150f2d982530cb104",  # quasipositize
    "505d463e10333111c23f49184a7f696762dd8d12a460029bc18501c141b579e5",  # reduce
    "8d78d8f9fc1c80ccf7b566257b232ca347c08737941bf7e14c22728ee5bbe525",  # quasipositize
    "3c13a45c64ae461f2f2fcf4b211acbe5371a7acfbfef3bb6b870f030de0e74fa",  # reduce
    "c8cd82f4b64a1073d87b2a0267ffd7ba0df91fbc860b3159c97f6200271c01a1",  # quasipositize
    "445521a56228c7eb095669b214c968ebc8271216c616b9b68921fa919b02a4bf",  # reduce
    "f2904777d38a24be0bdca1f4a3495b3441548b66f0ebd4c7474d44e1c284bb0b",  # quasipositize
]


def test_reduce_and_quasipositize_output_is_pinned():
    digests = [_stdout_digest(argv, graph) for argv, graph in _cases()]
    assert digests == PINNED


PINNED_DOCUMENTS = [
    "ac915efc5a5f993ab1d9c117bf689bc593d423a02c16e36727e523402bd6e21b",  # invariants
    "28677991102ef430e9df8ca774155a66f118432323cda5940224a7f82c1d610c",  # invariants
    "dadc0d0195034f2b6373faef3278e5d5b2433bc8b42fe6c72479c4da7f5cd353",  # invariants
    "8a81fcd44f5c7c4a267131472c763e1c194e02ab3bd694643f57a117a5254907",  # invariants
    "f59f6a479c5f400c48f8dda099ad1de2029de02eddef776e4d093ef5cdda15fb",  # invariants
    "e50e73e2ed58de2c3b96a95c70902d3084150e9ff56c718953781fb27a65db39",  # pad
    "0edccb0a79287b2ee40909d5dd4d3d41a4635d7018901b0736b9a54fe39bd128",  # pad
    "3c4d9d3b78d5dd1fa89a5a72f19933bfcbfe09acdff19bdfb7a6d1eb5c176bd4",  # pad
    "13c7cc074f981f90aa29f9189efdd4ce5e03c0c229d9c0f5e30bc7d501520916",  # pad
    "4c967fe78f6a2c3a05d8f03548a47de26daca8a549420298837a5c475dd7a265",  # expand
    "0d256dd640e0bfa42f5d18400537c6d0d7893681b6d026a62b9ba2c2d136f864",  # expand
    "cbe9bce139f087c1c4d5b1efe9299a991b6909f507a22243c1172d3fcacf0544",  # expand
    "31093c2151baf9d03de67ead2924c352c3d13a4bdaa930f1018277d7dd0fdcf9",  # expand
]

PINNED_SEIFERT = {
    "seeded": "cbc42bacda7ff19beab7b939f8d3b5113ea1f4405fceb854784d54c43b169ad9",
    "q_rep(2)": "2eea40791e128b95c4c860fcd2d1b6f21622da45a70ce152727db60e351b0590",
    "nabla(2)": "2eea40791e128b95c4c860fcd2d1b6f21622da45a70ce152727db60e351b0590",
    "q_rep(3)": "e0ed841c085aa6fea452b4ed8ad6033a3d652ae6dfec6fdb0d5d8f04e58f0c7a",
    "nabla(3)": "3307122a8b73dddeba2a2ecfa5161bbea9ea724161daac5b5c88daeaf7c05496",
    "q_rep(4)": "b79965279c48da58855db6a448a69815982b8681acbaae3ba495b118ab04d17b",
    "nabla(4)": "c69468f3edec9a9dfa64e6420d791db632d73cf3e7027be15652de0399b9e431",
    "q_rep(5)": "7fe2e6a8802ca53d6144998d88bb3a6898518e4fc14c72f4ce348a1c47c7fc00",
    "nabla(5)": "4232d8cb8a9ebf019960646a9fa8ad27f15ff9e3754ea1cbcf7d164cd9a62c8d",
    "q_rep(6)": "b63f59743091952b5983ee54939292378d7c60a4f20916187be6aa3e05c23de3",
    "nabla(6)": "aa2356957300b7da6fd117cdb0fb624e2361758d5ee249276912a4f6382b7bf7",
    "sweep-range": "a35bf8dd2caa85968e99254b3eb9bcc1d4e36554382e98ff8920c8e10798aa81",
}

PINNED_ALEXANDER = {
    "seeded": "7999a947ba5a5728abfc58751c2a64ed09eb487d757b9af8ad9fa9970cac20a7",
    "q_rep(2)": "dd53b93ad96174cdb01ace725a391c82c68ff282929b99c65b89daacfacded90",
    "nabla(2)": "dd53b93ad96174cdb01ace725a391c82c68ff282929b99c65b89daacfacded90",
    "q_rep(3)": "ffe2c876195a95e29762905a45b90a05797bb7354b50d1d1d2e41b87c4b42dac",
    "nabla(3)": "ffe2c876195a95e29762905a45b90a05797bb7354b50d1d1d2e41b87c4b42dac",
    "q_rep(4)": "3688edb2aa811314f1ddc8ee42fcce644937e88b06d552de826aa847e74a64b8",
    "nabla(4)": "3688edb2aa811314f1ddc8ee42fcce644937e88b06d552de826aa847e74a64b8",
    "q_rep(5)": "45305c3d5f415bee147d76d10b98b543199d1ff9c9f412b07ccc4abedf6cc45f",
    "nabla(5)": "45305c3d5f415bee147d76d10b98b543199d1ff9c9f412b07ccc4abedf6cc45f",
    "q_rep(6)": "2f234b7d4ba4b7be36fabc426fce1d8e4ac0e51880fc762a12998c33e86809b7",
    "nabla(6)": "2f234b7d4ba4b7be36fabc426fce1d8e4ac0e51880fc762a12998c33e86809b7",
}

PINNED_ARITHMETIC = "7e6c1992112eccac7feecfd8c6be4807ae2dd189de1ee4ee14fcf7fa1bb2a244"

PINNED_BURAU = {
    "q_rep(2)": "8182ebd99a678b73f2cc102b21ffabdea1a533fed1fe2917b77bf83b5bdb4f6b",
    "nabla(2)": "8182ebd99a678b73f2cc102b21ffabdea1a533fed1fe2917b77bf83b5bdb4f6b",
    "q_rep(3)": "e79f06632c5f9024e1757506a73dd87fbce5174962fa9d77387c37f79b0421d1",
    "nabla(3)": "e1462c3880da4cc74aef92301286af3826d1658042bf69db80f9ffff0bb1df52",
    "q_rep(4)": "dfa52033966fd617bed1e4b2e020808b593dd34cdf0f0c23f658429ce5646552",
    "nabla(4)": "0c339a947d7f7f6219d469de46d561b2948e94480b43a788136a78c7ff388c45",
    "q_rep(5)": "be471e9714a8df82ed1911b665842fab0914cb7af4f5272b50847502a763bc03",
    "nabla(5)": "8ed669cb663a141bbd8e810582a34a937ccbdda123fa8a54dba2401bf595cb8e",
    "q_rep(6)": "92eb0e9c3b1963d77f697524dcd37b2db005b28acc4979472e4746051c1e5c93",
    "nabla(6)": "2a7b5c090cbc261f28922c750e57ca00902fcac3e88ec7b9656c56e017411dbf",
    "seeded": "b4cce3ef20dc19331e1dc731f0bd3b63c457d172e5c5cf05fbbad5da95cb09fe",
}

PINNED_CYCLE_WORDS = "0b2c6974e0c4d21280b9381d9c23fbe15035b9324c09358826c0adc26c4ffe48"


PINNED_NUMBERING = [
    "8fa3b8321cf342c56130bb4d0efd0acb880216d101f0416f203b6600b8282d92",  # reduce
    "8693661005983223d4f24bee60db25fad789c133fc1f540fe859a0d85497be0c",  # reduce
    "359e9527a9979ae907a566d63479a3ffd35cf4619eb6275a3358e20a707436cd",  # reduce
    "4983177608d9f21b1eefb6dc0347f91c7ba4118d279f0605582e30e925b0a515",  # reduce
    "5ae8ca2560fa32bb86fd5095aa1a40753495a3b21cab3c7fab0c382e1b9421c1",  # reduce
    "6ab5e10558b61663d5ab213535853f5cdf39c2eeef4f9a203c3e138dc97ec611",  # reduce
    "b971ba7f56fc2b22e1be42c74840ef3e5b782cad29e7a08000d7cfadeb3d95b1",  # reduce
    "9ceb6ab664cf2cc156d67a93b0d0fcf22be1c6812f71e83f270a81740738e68a",  # reduce
    "a25c3ca8b59ec5c187397fa4448d38d326aba448151c95d747cf05d9c13725b4",  # reduce
    "af85eecb8e266573d3acd5521dcc904cf9fc11af776cf6853b7ad01dc27aed3e",  # reduce
    "763ab517d57ba9e3e5df8bf21dc4fed17d0596862c9edd44a93655f762b76e2c",  # quasipositize
    "a8e779aec99b43725c71130fa19aa2f091c7d790adcfcc3eddaaff55f7e4d386",  # quasipositize
    "c1c9dd9932e378e71d1c41b8bf15e9bb972a495c11569cfe5d6ce38b59407cfd",  # quasipositize
    "dab3f6a7c29240ddb6cad4c461ea11bedc3e587d6e8261775f9992a6007bd64a",  # quasipositize
    "2456a4cf7131adaebecd47bbf45201be3794349a504fdb19a788fd292847e6d0",  # quasipositize
    "780e13f37b35511f79041030ac07c3bb9de97ac4456bd05d112ac3ea8227df1b",  # quasipositize
]

PINNED_GROWN_SPINES = "4e08e4951726068f85dd2b695b2176a15c2937b3c4e06f4fbab5d97be2f96807"


PINNED_PROBLEMS = "c5f9467bce7c3d182792e067ffbcde7c9035f65a79bad7b6127467885288ca69"


def test_validate_problem_lists_are_pinned():
    assert _json_digest(_problem_lists()) == PINNED_PROBLEMS


def test_free_end_and_nested_dead_end_output_is_pinned():
    assert [_stdout_digest(argv, graph) for argv, graph in _numbering_cases()] == PINNED_NUMBERING


def test_grown_spines_are_quasipositized_as_pinned():
    assert _grown_spines_digest(range(40)) == PINNED_GROWN_SPINES


def test_invariants_pad_and_expand_output_is_pinned():
    assert [_stdout_digest(argv, doc) for argv, doc in _document_cases()] == PINNED_DOCUMENTS


def test_seifert_entries_are_pinned():
    got = {name: _json_digest([seifert_matrix(rep) for rep in reps]) for name, reps in _seifert_cases()}
    assert got == PINNED_SEIFERT


def test_cycle_words_are_pinned():
    assert _json_digest([cycle_words(graph) for graph in _cycle_graphs()]) == PINNED_CYCLE_WORDS


def test_alexander_coefficient_lists_are_pinned():
    got = {name: _json_digest(_alexander_lists(reps)) for name, reps in _alexander_cases()}
    assert got == PINNED_ALEXANDER


def test_laurent_arithmetic_repr_is_pinned():
    assert _json_digest(_arithmetic_reprs()) == PINNED_ARITHMETIC


def test_burau_matrices_are_pinned():
    assert {name: _burau_digest(words) for name, words in _burau_cases()} == PINNED_BURAU


if __name__ == "__main__":
    for argv, graph in _cases():
        print(argv[0], _stdout_digest(argv, graph))
    for argv, graph in _numbering_cases():
        print(argv[0], _stdout_digest(argv, graph))
    print("problems", _json_digest(_problem_lists()))
    print("grown spines 0-39", _grown_spines_digest(range(40)))
    print("grown spines 0-399", _grown_spines_digest(range(400)))
    for argv, doc in _document_cases():
        print(argv[0], _stdout_digest(argv, doc))
    for name, reps in _seifert_cases():
        print("seifert", name, _json_digest([seifert_matrix(rep) for rep in reps]))
    print("cycle_words", _json_digest([cycle_words(graph) for graph in _cycle_graphs()]))
    for name, reps in _alexander_cases():
        print("alexander", name, _json_digest(_alexander_lists(reps)))
    print("arithmetic", _json_digest(_arithmetic_reprs()))
    for name, words in _burau_cases():
        print("burau", name, _burau_digest(words))
