"""Golden outputs: SHA-256 of every gadget builder's JSON and of every file
`write_trace` writes for the acceptance corpus at k=4, plus formulas 0 and 2
at k=5 and k=6 and formula 0 at k=7 and k=8.

Vertex ids, names, roles, rotations, stage files and manifests are part of
the reduction's contract; any change to them shows up here.  The hashes were
taken before the gadget-embedding refactor and are never regenerated to make
a change pass.
"""

import contextlib
import hashlib
import io
import json
import math
import random

import pytest

from planar_l21 import cli, gadgets
from planar_l21.graphs import to_json
from planar_l21.labelling import EXHAUSTED, _LabelSearch, solve_labelling
from planar_l21.nae3sat import Nae3SatFormula
from planar_l21.pipeline import run_reduction, write_trace

from conftest import random_graph
from oracles import edge_gadget_table, pinned_extensions
from test_acceptance import CORPUS

GADGET_BUILDERS = {
    "H": gadgets.build_H,
    "ClauseK": gadgets.build_clause_gadget,
    "UncrossU": gadgets.build_uncrossing,
    "AuxEdge": gadgets.build_aux_edge,
}
GADGET_BUILDERS.update({f"Hprime{k}": (lambda k=k: gadgets.build_Hprime(k)) for k in range(6, 10)})
GADGET_BUILDERS.update({f"G{k}": (lambda k=k: gadgets.build_edge_gadget(k)) for k in range(4, 13)})

GADGET_HASHES = {
    "H": "7aabbad9d1fe1d4445236a853830c8ad08d9204771671447a2d841e2bbf86d2a",
    "ClauseK": "d76f58d9f1ccaadc7e5edc0fcbb9076b40f803ff83b3eae35981aa05656c093e",
    "UncrossU": "9a081f25b4e850acce190df6de1720a9259af29b18608e4043884b3eb79e6cfd",
    "AuxEdge": "62f832e36f1b55319cbcfe59428c694fb2e31a9500a361d6f05736883b46dba3",
    "Hprime6": "5aaa92c6f6cb97259cab76a2f6308b0ce1b5578dee471dca233b2c963b288a79",
    "Hprime7": "b30f6e23c107dffca12a8a47abe3c8c71c6d6185c3cdddb301882b864ef6542d",
    "Hprime8": "347846acbdf213160731d8d01ff4f90c522674ba1acdc8be32d0863cf918ff30",
    "Hprime9": "a8559fc01ec32373e1b99b9e20649115ddcee1d6cbc30046a68c7587f93b51dd",
    "G4": "f41211a2a917dc77380594413388fa15f3648cf49d00c6411d2ed456c1bf2c1b",
    "G5": "9fae74477c237797a4a9255f9804460c6f102d6afa2b343f371cae886c7e1771",
    "G6": "bce36ed8b55cd51d8cc554536365e2347af05003f631cbbbc074d414a22957da",
    "G7": "909c88a41340eee350a3d49b09709be6906d715e1a93b6a0f0f5e2ff5b40111d",
    "G8": "c42c3b444a41fb613bda93e88dc8e6ecf091d28a8d611681b333be5ef5300aca",
    "G9": "2b30cc6cd7841317ed9d2d017bfa75a7aee3e93fa4a0a236e1ea4b30a80d4e4a",
    "G10": "a67de1848b17d918659534d25e21fc8913065b70bc0bc3b9d91c871f79508fef",
    "G11": "79e039309ec04b7a87064aae7ec3a5a96402db00e4de19f9a6219154c63fcc84",
    "G12": "035c8f92dde08b8a59b638167df089fbce347efba43f86d303a1beedb1c8f69a",
}

TRACE_ITEMS = [(i, 4) for i in range(len(CORPUS))] + [(0, 5), (2, 5), (0, 6), (2, 6), (0, 7), (0, 8)]

TRACE_HASHES = {
    "f0k4/formula.cnf": "80fff472db7c2cf9e907c684b876110c0f47d97e1ef9aacd587016d65d12f221",
    "f0k4/cubic.json": "95a023c899975d3a1f3cfbcb93cdfccaee79b33dc3d4ddecaee02fbc6dcb79aa",
    "f0k4/planar.json": "38fc5eed151f881cf3acbcb262de8fc944cb0ae6af51e08f78becc99ff018868",
    "f0k4/aux.json": "6339bc806efb895647d89d321106a3508bd580ea3844c3b6717947c4684221a0",
    "f0k4/instance.json": "367e5b80f923f700dc1b402159339d6ae959d3443bd1a4d8df4303a6c6d6820e",
    "f0k4/manifest.json": "f6843f8589045a9049842875379c5130052b9a9f2d8f72d9b6a0b4ae781dc535",
    "f1k4/formula.cnf": "3a0f9abe927c393612ee76ae45096c9c779eb89a296ff07ad05c4d4505f55c71",
    "f1k4/cubic.json": "5f2ac8f9339dd7922f9780d16f65024d65cd6fdb3a3d0bed83a5b80e622137ac",
    "f1k4/planar.json": "4465479725c95477b112204bed834a03520c79d920f20c0d7d20b457649c9f66",
    "f1k4/aux.json": "d5d61fdf38a3b6ec916eaf780769dd9c1ba0b651d3ffb8b09d68f26007edc10a",
    "f1k4/instance.json": "b209a4da798ce04d970552fab1fd73ef44a9cb2013b884b7d9289c1229a9e8db",
    "f1k4/manifest.json": "e35e3208370ac499c64475cf6bfe670265bad49924e5a13894639d6332fa638c",
    "f2k4/formula.cnf": "bb6b44072e8601d274a67998776d68ee4280f31af89bd2a5c42fbd2cabe6e9df",
    "f2k4/cubic.json": "95a023c899975d3a1f3cfbcb93cdfccaee79b33dc3d4ddecaee02fbc6dcb79aa",
    "f2k4/planar.json": "38fc5eed151f881cf3acbcb262de8fc944cb0ae6af51e08f78becc99ff018868",
    "f2k4/aux.json": "6339bc806efb895647d89d321106a3508bd580ea3844c3b6717947c4684221a0",
    "f2k4/instance.json": "367e5b80f923f700dc1b402159339d6ae959d3443bd1a4d8df4303a6c6d6820e",
    "f2k4/manifest.json": "9475c457798f69ffb4c1e06702fa857251ff96e2b9ccec39238883b1662f57a5",
    "f3k4/formula.cnf": "43942edaa40fb47f906b258676d40f223bad6533d7a61bc81d796507288fd770",
    "f3k4/cubic.json": "8a557c19ef58b7896c35befb411145a471a6f787af9518fcb9d5f34e983d6cbe",
    "f3k4/planar.json": "14af90c159ecf111365adaefbaf67890482e68acc5dc803ddeb0db8dec7c22bf",
    "f3k4/aux.json": "17248c7e7c4b52a2f17a90a7983a19869ae39347f3fcb51f24186cd05cf7123c",
    "f3k4/instance.json": "689e31d3668cdadde5eefe04cc8e8c5f19ddbc05deaef620358cedb643f0342a",
    "f3k4/manifest.json": "331ce0b69a55fa6c6c54fbd3e33051329de8af1cede362c0adeadc2f86b78b43",
    "f4k4/formula.cnf": "e11f68bffbb783d78aed610a348be830adf09f7985beb5fb1910a79e6d7dcb8f",
    "f4k4/cubic.json": "76e70f86d5fe60e03285b46b29867b169b2e152012f68f5f42bde12e0aaac1c1",
    "f4k4/planar.json": "c5ecde6b084c4b4d5e7a19c76f3945f96fd2c476a06598505e9348286c6e2905",
    "f4k4/aux.json": "a766f6c8f2e78eec0ce71273f9a9b259f2ba16f689a70da6d579281f7ed374bd",
    "f4k4/instance.json": "5a1b5c5db86050f1b7cde25a085bf396fb75a97169bea766f291a0dc81183163",
    "f4k4/manifest.json": "8db2a68e8c36760b06e8b7942e0adb4fdfb625b6e6cfbdab632a5a944da19dd9",
    "f5k4/formula.cnf": "ad3960efb973f389692eabb08425cd0851b33fd81cfa36b1cde50147bb4d614b",
    "f5k4/cubic.json": "0d1af63c222793209c76031bafb6b0f7f3e0953c7ab0006b3fc2fb2de1cb649b",
    "f5k4/planar.json": "72f56bbb7fc63aa31073ff261ca1fd38413222833f6aec56252f6a2a0ee4722d",
    "f5k4/aux.json": "dbd95cf931941a31816077e76703bbf1e596fe730f5a82cf7c99f6b8cacd286d",
    "f5k4/instance.json": "92aaaec629fb8f3d6e9b4309dd0b5d3e8f4aa156ecdbed4cfb73f7477d998ff6",
    "f5k4/manifest.json": "863d9304ab2eba6cc5a042f4342a1b3359643cc004ca6545b0368cfcfef79806",
    "f6k4/formula.cnf": "48f313d24893af7ee157ab33f4cae885271ff04ed5d45007ba9e82f212d45675",
    "f6k4/cubic.json": "45fba3a2d3bcb63abf172c9f0af45890e0547261c0e3f892cc96ec6197a7eab6",
    "f6k4/planar.json": "68fbc6af953a92a86d99c286b88207d3e9cb3fe3ec2cd842dbb457bf8547a2f6",
    "f6k4/aux.json": "c44a70cdf772c6f85e21f358ad1da071daaeaebf717e7fb7c051002212705e70",
    "f6k4/instance.json": "d0af1e708168d9c471d13585b3bc0ea841c94ccdc82b36d92571c1fefd2cacfa",
    "f6k4/manifest.json": "c6950fd37c326a147c94948d758480606cb8ce3f1d06abdfe83041f2f949ad42",
    "f7k4/formula.cnf": "c65b39e13abee6cdf17ad28ec838b44191f929a4f3010aad442188561e050103",
    "f7k4/cubic.json": "895b8a60d088e4919a37c67720da24a307b02d8b74c22fdeb9eacae754a42b80",
    "f7k4/planar.json": "9b9d0ce134aa712502896be6f871024e08c4f07050ff4dd652e78cb073dc5f2d",
    "f7k4/aux.json": "e05707da262a95fc8e9804c0c1908c6d1628b8767695d0bed088cf8f0205a43f",
    "f7k4/instance.json": "31653def3eaee447b4739dfb467419c68c8d2f39ea8c47efb844eea04de432dd",
    "f7k4/manifest.json": "003722e2aa802b6f9b76cd4f6b0ec1aae342957b39518f6d7a6a2cad01991eea",
    "f8k4/formula.cnf": "eeb42b442f9b40e4e5458914d914414d757a64424a8a0c259f2b844f296578ea",
    "f8k4/cubic.json": "7bf822960c7a1133fc2e62d94c7b21352ff0389c24e24aca597d62f1df459d60",
    "f8k4/planar.json": "215d4def83e632b276c2bf65a05fa87a851178a692d42963145830967b8ffbe0",
    "f8k4/aux.json": "0183e4eceb26e12d2ff9d85691b4575972ca4833a09928a6c9bca7b642c824d7",
    "f8k4/instance.json": "df992998e66db0124e155841aa1535ea3aa998306588a39c3d315d92abf52222",
    "f8k4/manifest.json": "b241ccf5acf077674ee6174ea9f2331f25387297be01d4678c432db8bb869085",
    "f9k4/formula.cnf": "1df3b77187787ef544ab94d660ed21128ee391c2c9933cc2e429551654d72d24",
    "f9k4/cubic.json": "5c5cf567c46f352782a0946bbad5d56336d4e69f7710b15cdfcf68a3df7c9476",
    "f9k4/planar.json": "98393e08f18c5ab67d2b4e1045ca59f9f4bae3a2ad2b05fc3cf55103f8349be2",
    "f9k4/aux.json": "41b23064e30dd0623f25350809514a260fbc1d4378c05bbff16add084ee7f100",
    "f9k4/instance.json": "fa404b92817a72cac480a2249db6e74493222a2ea5b25130f7af78e7fb60b17f",
    "f9k4/manifest.json": "bf1f5bb0013c94fe2b8a64c51dcae5e3d91ac54f52a9f655bef3edfa75d01ad6",
    "f10k4/formula.cnf": "f21bbfcb9d354e0653cb22413a5f716f5a85c2a4433baef94435a91186b6f328",
    "f10k4/cubic.json": "eddf87e44c82ee3169638c35d211eb8558ec49e436a9befd15ba80fc6ac5ff9a",
    "f10k4/planar.json": "65f0da1c1aa4a159a472f3005968c7397f6e2d4c1ac0de48ecaa9cedc094d407",
    "f10k4/aux.json": "b889a66f643aec205bfe0cba262f9be020388b2d721195dc1417cf5e7c1f6dcc",
    "f10k4/instance.json": "d6d0fe97c7c7233f02d1a1b5b242cda337f18c919d8a02b8a11e927b60c08a72",
    "f10k4/manifest.json": "b9edf8023c27ed3be53aa6df6d65e624829dcdeb98950a9f62d9c285fa51b3c3",
    "f0k5/formula.cnf": "80fff472db7c2cf9e907c684b876110c0f47d97e1ef9aacd587016d65d12f221",
    "f0k5/cubic.json": "95a023c899975d3a1f3cfbcb93cdfccaee79b33dc3d4ddecaee02fbc6dcb79aa",
    "f0k5/planar.json": "38fc5eed151f881cf3acbcb262de8fc944cb0ae6af51e08f78becc99ff018868",
    "f0k5/aux.json": "6339bc806efb895647d89d321106a3508bd580ea3844c3b6717947c4684221a0",
    "f0k5/instance.json": "96aaa4605720ecd541674389bb3db9d5eac314865e56cd75a15d0876c1398f49",
    "f0k5/manifest.json": "1b6967c97d5c2ce7cc772715a6d56059d1e05e225bca16ef1b78b66a67ec2687",
    "f2k5/formula.cnf": "bb6b44072e8601d274a67998776d68ee4280f31af89bd2a5c42fbd2cabe6e9df",
    "f2k5/cubic.json": "95a023c899975d3a1f3cfbcb93cdfccaee79b33dc3d4ddecaee02fbc6dcb79aa",
    "f2k5/planar.json": "38fc5eed151f881cf3acbcb262de8fc944cb0ae6af51e08f78becc99ff018868",
    "f2k5/aux.json": "6339bc806efb895647d89d321106a3508bd580ea3844c3b6717947c4684221a0",
    "f2k5/instance.json": "96aaa4605720ecd541674389bb3db9d5eac314865e56cd75a15d0876c1398f49",
    "f2k5/manifest.json": "b127c16c05ef66741752db7a0a8d55e4c433723a2a542a9c41ad534118c48866",
    "f0k6/formula.cnf": "80fff472db7c2cf9e907c684b876110c0f47d97e1ef9aacd587016d65d12f221",
    "f0k6/cubic.json": "95a023c899975d3a1f3cfbcb93cdfccaee79b33dc3d4ddecaee02fbc6dcb79aa",
    "f0k6/planar.json": "38fc5eed151f881cf3acbcb262de8fc944cb0ae6af51e08f78becc99ff018868",
    "f0k6/aux.json": "6339bc806efb895647d89d321106a3508bd580ea3844c3b6717947c4684221a0",
    "f0k6/instance.json": "10aa3d3719bba87d69341e930d41bbb699563cbe3feeb9acae431352b3e41459",
    "f0k6/manifest.json": "213e580db46124f1f4743882e8c97fe27ff5108a8aa15bf57a03a1066ced2a8e",
    "f2k6/formula.cnf": "bb6b44072e8601d274a67998776d68ee4280f31af89bd2a5c42fbd2cabe6e9df",
    "f2k6/cubic.json": "95a023c899975d3a1f3cfbcb93cdfccaee79b33dc3d4ddecaee02fbc6dcb79aa",
    "f2k6/planar.json": "38fc5eed151f881cf3acbcb262de8fc944cb0ae6af51e08f78becc99ff018868",
    "f2k6/aux.json": "6339bc806efb895647d89d321106a3508bd580ea3844c3b6717947c4684221a0",
    "f2k6/instance.json": "10aa3d3719bba87d69341e930d41bbb699563cbe3feeb9acae431352b3e41459",
    "f2k6/manifest.json": "bab0b90a93a6b2ba9e2669ec431fd7ab535349ba4955a13496a8ecd33a41eeeb",
    "f0k7/formula.cnf": "80fff472db7c2cf9e907c684b876110c0f47d97e1ef9aacd587016d65d12f221",
    "f0k7/cubic.json": "95a023c899975d3a1f3cfbcb93cdfccaee79b33dc3d4ddecaee02fbc6dcb79aa",
    "f0k7/planar.json": "38fc5eed151f881cf3acbcb262de8fc944cb0ae6af51e08f78becc99ff018868",
    "f0k7/aux.json": "6339bc806efb895647d89d321106a3508bd580ea3844c3b6717947c4684221a0",
    "f0k7/instance.json": "d28fe74d962486f77b1b7c047146862d008d2d73c92979d412707747c4e1193f",
    "f0k7/manifest.json": "6cb19a73f1b7af17d24fed005bd8e00b7bcac9b04b291ba3b059c340c1a7c75a",
    "f0k8/formula.cnf": "80fff472db7c2cf9e907c684b876110c0f47d97e1ef9aacd587016d65d12f221",
    "f0k8/cubic.json": "95a023c899975d3a1f3cfbcb93cdfccaee79b33dc3d4ddecaee02fbc6dcb79aa",
    "f0k8/planar.json": "38fc5eed151f881cf3acbcb262de8fc944cb0ae6af51e08f78becc99ff018868",
    "f0k8/aux.json": "6339bc806efb895647d89d321106a3508bd580ea3844c3b6717947c4684221a0",
    "f0k8/instance.json": "da318e22c9a2e4da78130f2a42a5453028366c0f5a00d5667533419885a60f73",
    "f0k8/manifest.json": "1c88ebc342d01db4896ff71c438ad18619182dc2a7181adb7d5ad9b836a499b5",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GADGET_BUILDERS))
def test_gadget_builder_golden(name):
    inst = GADGET_BUILDERS[name]()
    assert _sha256(to_json(inst.graph, inst.rot, inst.ports, inst.k)) == GADGET_HASHES[name]


@pytest.mark.parametrize("index,k", TRACE_ITEMS)
def test_trace_files_golden(index, k, tmp_path):
    written = write_trace(run_reduction(CORPUS[index], k), tmp_path)
    observed = {f"f{index}k{k}/{name}": _sha256((tmp_path / name).read_text()) for name in written}
    expected = {key: h for key, h in TRACE_HASHES.items() if key.startswith(f"f{index}k{k}/")}
    assert observed == expected


# ---------------------------------------------------------------------------
# Solver golden outputs.  Both solvers propagate to a unique fixpoint, so a
# faster propagator must reproduce outcomes, node counts and witnesses
# exactly.  Two call sequences are pinned: the exhaustive one, certify_Hprime
# for k = 6..8 and then the oracle's G_k tables for k = 4..8 (one fresh
# solve_labelling per boundary tuple), and the calls `l21 certify --k 4..8`
# itself makes, which compose G_k for k >= 6 from the H' lemma's pairs with
# no solve.  Those pairs are enumerated once, by certify_Hprime; the earlier
# pin, CERTIFY_SOLVER_*, is that log followed by the H' pair enumeration that
# the G_k certifier repeated for each of k = 6, 7, 8.
#
# `_LabelSearch.extensions` walks a boundary instead of making one pinned
# solve per tuple, so these logs are replayed: each extensions call is checked
# against `pinned_extensions`, the per-tuple reference, whose solves are
# logged in its place.  CERTIFY_LEAF_* pins the leaf searches the walk itself
# makes for `l21 certify --k 4..8`, and the command's stdout is pinned too.
# ---------------------------------------------------------------------------

SOLVER_CALLS = 1490
SOLVER_NODES = 41670
SOLVER_HASH = "7b7f8e84efe8dd4b3130a291636b9ec2458f305e0aeecf7809fe8deb6998dc8a"
CERTIFY_SOLVER_CALLS = 908
CERTIFY_SOLVER_NODES = 122
CERTIFY_SOLVER_HASH = "592df90935244f55037236b11d3d12f3dac28fa547b5c3527b6547cc8b00f336"
CERTIFY_LIBRARY_CALLS = 714
CERTIFY_LIBRARY_NODES = 74
CERTIFY_LIBRARY_HASH = "a0e2f1b54ac6b93a35879e1adca5b9edb7ccb328f3175e5895d6cc98863bde7b"
CERTIFY_LEAF_CALLS = 28
CERTIFY_LEAF_NODES = 74
CERTIFY_LEAF_HASH = "9c9bd42010623fecdfaf0405746ecf109452d0bbbbd8c28baba42b40747d8e1b"
CERTIFY_STDOUT_HASH = "2fb2dd7e5596fab51d4cea9ee94ee172282145c812958ecc8adc38639b87ddac"


def _witness(result):
    return None if result.labelling is None else sorted(result.labelling.labels.items())


@contextlib.contextmanager
def logged_solves():
    """Log every pinned solve, the one path that solve_labelling and
    `pinned_extensions` share, as (k, sorted pins, outcome, nodes, sorted
    labels)."""
    original = _LabelSearch.solve
    calls = []

    def logged(search, pins, budget):
        result = original(search, pins, budget)
        calls.append([search.k, sorted(pins.items()), result.outcome, result.nodes, _witness(result)])
        return result

    _LabelSearch.solve = logged
    try:
        yield calls
    finally:
        _LabelSearch.solve = original


@contextlib.contextmanager
def replayed_extensions():
    """Check every `_LabelSearch.extensions` call against `pinned_extensions`
    on a fresh search of the same graph and span, which is run right after
    it (so inside `logged_solves` its solves are logged in the call's place).

    Yields ``(leaves, replayed)``: the leaf searches (`_LabelSearch._leaf`)
    the library's walks make, as (k, boundary labels, outcome, nodes, sorted
    labels), and a one-item list counting the reference's solves."""
    extensions, leaf = _LabelSearch.extensions, _LabelSearch._leaf
    leaves, replayed = [], [0]
    walking = []  # the boundary of the library call in progress

    def logged_leaf(search, budget):
        labels = [search.domains[v].bit_length() - 1 for v in walking[-1]] if walking else None
        result = leaf(search, budget)
        if walking:
            leaves.append([search.k, labels, result.outcome, result.nodes, _witness(result)])
        return result

    def checked(search, boundary, domains):
        domains = [list(labels) for labels in domains]
        walking.append(list(boundary))
        try:
            observed = extensions(search, boundary, domains)
        finally:
            walking.pop()
        assert observed == pinned_extensions(_LabelSearch(search.graph, search.k), boundary, domains)
        replayed[0] += math.prod(map(len, domains))
        return observed

    _LabelSearch.extensions, _LabelSearch._leaf = checked, logged_leaf
    try:
        yield leaves, replayed
    finally:
        _LabelSearch.extensions, _LabelSearch._leaf = extensions, leaf


def _calls_digest(calls) -> str:
    return _sha256(json.dumps(calls, separators=(",", ":")))


@pytest.fixture(scope="module")
def certify_run():
    """Run `l21 certify --k 4..8` once, logging its leaf searches and the
    replayed per-tuple solves."""
    out = io.StringIO()
    with logged_solves() as calls, replayed_extensions() as (leaves, replayed):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["certify", "--k", "4..8"])
    return code, out.getvalue(), calls, leaves, replayed[0]


def test_certify_solver_calls_golden():
    with logged_solves() as calls, replayed_extensions():
        for k in range(6, 9):
            assert gadgets.certify_Hprime(k).passed
        for k in range(4, 9):
            assert edge_gadget_table(k) == gadgets.edge_gadget_expected_table(k)
    assert len(calls) == SOLVER_CALLS
    assert sum(call[3] for call in calls) == SOLVER_NODES
    assert _calls_digest(calls) == SOLVER_HASH


def test_certify_library_solver_calls_golden(certify_run):
    _, _, calls, _, _ = certify_run
    assert len(calls) == CERTIFY_LIBRARY_CALLS
    assert sum(call[3] for call in calls) == CERTIFY_LIBRARY_NODES
    assert _calls_digest(calls) == CERTIFY_LIBRARY_HASH


def test_certify_leaf_searches_golden(certify_run):
    # the walk's own leaves; every logged solve is the reference's, so the
    # command itself makes no pinned solve
    _, _, calls, leaves, replayed = certify_run
    assert len(calls) == replayed
    assert len(leaves) == CERTIFY_LEAF_CALLS
    assert sum(leaf[3] for leaf in leaves) == CERTIFY_LEAF_NODES
    assert _calls_digest(leaves) == CERTIFY_LEAF_HASH


def test_certify_log_and_the_hprime_pair_enumerations_golden(certify_run):
    # the enumeration the G_k certifier made for k >= 6 before it composed
    # from the lemma's pairs, appended to the command's own log
    _, _, calls, _, _ = certify_run
    with logged_solves() as pair_calls, replayed_extensions():
        for k in range(6, 9):
            hp = gadgets.build_Hprime(k)
            _LabelSearch(hp.graph, k).extensions([hp.ports["c"], hp.ports["d"]], [range(k + 1)] * 2)
    calls = calls + pair_calls
    assert len(calls) == CERTIFY_SOLVER_CALLS
    assert sum(call[3] for call in calls) == CERTIFY_SOLVER_NODES
    assert _calls_digest(calls) == CERTIFY_SOLVER_HASH


def test_certify_stdout_golden(certify_run):
    code, stdout, *_ = certify_run
    assert code == 0
    assert _sha256(stdout) == CERTIFY_STDOUT_HASH


# ---------------------------------------------------------------------------
# Search trajectories: long backtracking paths and budgeted stops, which the
# certify calls above (small gadgets, no budget) never reach.  A 2,000-node
# search on the k=4 instance of each fixed formula of the benchmark's search
# workload pins its outcome, node count and every domain it leaves; a seeded
# sample of random graphs pins solve_labelling across spans, budgets and pins.
# ---------------------------------------------------------------------------

TRAJECTORY_FORMULAS = [
    Nae3SatFormula(1, ((1, 1, 1),)),
    Nae3SatFormula(3, ((1, 2, 2), (2, 3, 3), (3, 1, 1))),
    Nae3SatFormula(2, ((-1, -2, -2), (1, -2, -2))),
    Nae3SatFormula(3, ((1, 2, 3),)),
]
TRAJECTORY_BUDGET = 2000
TRAJECTORY_HASHES = [
    "baef01467db4a8e9495dac5fc9f606ac9cbe1a51d38f2256ffa8d992c8147090",
    "d33829a4ae5c182126c01600b1665ef5ede6d072a9ce3f4637d2d7ddf9fc0505",
    "90cbe2f04e2cf4fbe91b4c95d48cdcbcb947bff4dddbbf1f1cbb26bc76952794",
    # a different graph from the first, searched the same way for 2,000 nodes
    "baef01467db4a8e9495dac5fc9f606ac9cbe1a51d38f2256ffa8d992c8147090",
]
RANDOM_SOLVES = 400
RANDOM_SOLVES_HASH = "8074dc623c58843fdbebed149c58a1cacc63de721a31fae23edf9ebece10eb5c"


@pytest.mark.parametrize("index", range(len(TRAJECTORY_FORMULAS)))
def test_search_trajectory_golden(index):
    graph = run_reduction(TRAJECTORY_FORMULAS[index], 4).instance.graph
    search = _LabelSearch(graph, 4)
    assert search.initial_domains() and search.propagate(range(graph.n))
    outcome = search.search(TRAJECTORY_BUDGET)
    assert outcome == EXHAUSTED and search.nodes == TRAJECTORY_BUDGET + 1
    digest = _sha256(json.dumps([outcome, search.nodes, search.domains], separators=(",", ":")))
    assert digest == TRAJECTORY_HASHES[index]


def test_random_solves_golden():
    rng = random.Random(20261018)
    calls = []
    for _ in range(RANDOM_SOLVES):
        k = rng.randint(3, 8)
        graph = random_graph(rng, rng.randint(6, 18), rng.uniform(0.1, 0.3))
        budget = rng.choice([None, 5, 50, 500])
        pins = {}
        if rng.random() < 0.3:
            for v in rng.sample(range(graph.n), rng.randint(1, min(3, graph.n))):
                pins[v] = rng.randint(0, k)
        result = solve_labelling(graph, k, pins, budget)
        labels = None if result.labelling is None else sorted(result.labelling.labels.items())
        calls.append([k, sorted(pins.items()), budget, result.outcome, result.nodes, result.reason, labels])
    assert _sha256(json.dumps(calls, separators=(",", ":"))) == RANDOM_SOLVES_HASH
