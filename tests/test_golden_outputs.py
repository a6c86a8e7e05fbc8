"""Pinned CLI outputs: the sha256 of the bytes each command writes.

Each run goes through cpsq.cli.main in this process, with a stdout that
has a binary layer, as a process's own has. A change to any of these
outputs, a format change among them, has to edit its digest here.
"""

import contextlib
import hashlib
import io

import pytest

from cpsq.cli import main

GOLDEN = {
    "count 1000000000000 --format json":
        "e69c3a1f37cf1e65bd897f6508fd11ed8d2bea1a56ec081aafda258b31a53c2f",
    # the text line with its per-length map, and each count mode's own line
    "count 1000000000000":
        "8eb292b0eb534c2cffde2638557ab70a6842179fc1ee1b44298065bb37c48dac",
    "count 1000000000000 --count-mode distinct":
        "08c27512396edf26d671d7dd066442da133d06f43015bc4bd4aa3df328686b63",
    "count 1000000000000 --count-mode multiplicity":
        "27f6819653f0516d7d11020048547dc0bac39b2a31631e65a3f333fd32689a81",
    "list 99000000000":
        "465620ad39d64c2286f8895ae8efb230cc108b538b59c5d8e3d8b6bae5ce349d",
    "list 5000 --format json":
        "8603bafe426f92566f2a5bc541fcb522c5e6213af530368afa3e8c00112803b5",
    "list 100000 --format csv":
        "b6de287e70769d785be9f17ad746c075804bf0a41215f1b49cdaaa20b3a161a0",
    "verify":
        "64f4f5dd556a069c119b41c10298778081c3e843cdacc44b98da0f978db6133e",
    "maxlen 1e19":
        "fe295bfade826ce881e01c7a7dfa9c935d8db7bc4fa981364bff8279c8ec6b61",
    "maxlen 2":
        "818a3ecdde8259e39c794b428cafad32e30cd6329dff41a0a7cfe46c410600fa",
    "find 2020":
        "88692723780d78880ae30e4e258c654c533fa9c9bddb1c836ff98837e200af7e",
    "count 100 --format csv":
        "79245c3b257ca1fcf45bffd97795fc28a52bd05ffbceedb68b652bc73f9dd4c5",
    "find 2020 --format csv":
        "e6134cc482aea8ad62020dc46f2c15519867f034a25adfe8e07318f4bc687e97",
    "maxlen 5000 --format csv":
        "071df072e785b0a062fcf969744fd4741930b70ab7faa3b38f699667523856e0",
    "verify --format csv":
        "8f9d44e05bb60085c6a6a63cb85ba4d9c9dc21752f495d9ae5ce8e1e11d6e0e0",
    # JSON keeps every bit of lhs and rhs, which text and CSV round to 6
    # digits; the second grid holds the inapplicable count-lower rows
    "verify --format json":
        "6eb5a836893146bc5ed791ecfbdcf7827f45540e7cbf49392c74d8454a9a5192",
    "verify --grid 2,100,288,289,10000 --format json":
        "80d8b0ad90b3517fc79f723a39fcd8f5a2d693f50e1ff535c7f2313b41029125",
}


@pytest.mark.parametrize("command", GOLDEN)
def test_output_matches_its_pinned_digest(command):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.buffer.getvalue()).hexdigest() == GOLDEN[command]
