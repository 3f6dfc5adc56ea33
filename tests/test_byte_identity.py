"""`qpfiber reduce` and `qpfiber quasipositize` print the same bytes as before.

The pinned sha256 digests are of the stdout of each verb, reading the graph
from stdin, on twenty seeded graphs: ten from `sampling.random_full_graph`
(reduce only; their hosts are not S(q_n)) and ten handle spines of S(q_4)
and S(q_5) grown by inverse Whitehead moves (both verbs).  They were
recorded before the indexed graph and its edit primitive replaced the
rescanning code, so any change in a trace, a graph or an output band shows
here.  The report echoes the digest of the input, so a change in the
samplers shows too.  `PYTHONPATH=src python tests/test_byte_identity.py`
prints the digests of the checkout it runs in.
"""

import contextlib
import hashlib
import io
import json
import random
import sys

from qpfiber.cli import run
from qpfiber.constructions import q_rep
from qpfiber.sampling import inverse_whitehead, random_fine_handle_subset, random_full_graph
from qpfiber.surface import BraidedSurface, handle_spine


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


def _stdout_digest(argv, graph) -> str:
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(graph.to_json()))
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


if __name__ == "__main__":
    for argv, graph in _cases():
        print(argv[0], _stdout_digest(argv, graph))
