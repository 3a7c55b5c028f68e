"""The lemma suite's instance lists, pinned: every instance, its order,
label, status and detail, on the corpus, the forbidden continuations,
families at q = 7, 11 and 25, and algebras whose last contexts sit at the
edge of a lemma's degree guards."""

import hashlib
import json

import pytest

from helpers import failures, forbidden_continuations
from thinlie.patterns import compile_pattern, family_pattern, verify_lemma_suite

CORPUS = ("a", "b", "c", "d", "e", "L1q", "L0q", "uniqueness",
          "T72_metabelian", "N77")
FAMILY_PARAMS = {"b": {"start_type": 2}, "c": {"s": 1},
                 "d": {"s": 1, "step": 1}, "L0q": {}, "L1q": {},
                 "uniqueness": {"s": 1}}
# (p, q, N) of the family algebras beyond the corpus
FAMILY_SIZES = ((7, 7, 150), (11, 11, 150), (5, 25, 300))
FAMILIES = [f"{fam}/q{q}" for _, q, _ in FAMILY_SIZES
            for fam in ("b", "c", "d", "L0q")]
# (family, N) at p = q = 7, built two degrees past N as the CLI builds them:
# a lemma's degree guards decide its last contexts, where a looser guard
# adds an instance or reads past the built range
EDGES = (("b", 39), ("d", 48), ("d", 54), ("L1q", 30), ("uniqueness", 30),
         ("uniqueness", 94))

# SHA-256 of json.dumps([vars(i) for i in instances], sort_keys=True): the
# instances, their order, labels, statuses and details
PINNED = {
    "a": "0102376402444cbae4618016a2c4fce1aaf7359814f905c59e88e63f5cf02def",
    "b": "6c818efebaf1afd3d1126a4cbdb8a59e78d51fc3bceacf0c197d1b1bc1c03ac1",
    "c": "dbced609cfcff71c6334f97492e115991328b85c88101415e858a21ab9b151dd",
    "d": "69dcf7623448cc663b338afc6c4b69dc2ad40eb51c8969598443a93aaf533c6d",
    "e": "5bf4bd509d368a4c705630bd7de0e3c6b06aba491b9bf709c35858c37db90cb1",
    "L1q": "69a35c16c200ddffac4d83c41002c9003648c34d964dbb8c412c3f06f3f551cb",
    "L0q": "8db41cb854bd37e5b54af6173e3889aeb40338f42c0ea1599f3a4d1bf05396d2",
    "uniqueness": "ba5d3e6f2e05b60f61787b9096101323115b0ba6e685a58d329acd20a01e2c1b",
    "T72_metabelian": "5bf4bd509d368a4c705630bd7de0e3c6b06aba491b9bf709c35858c37db90cb1",
    "N77": "5624a0b766cef405d31fa6af6455721fad57c2632bdf2146102e52988b216979",
    "finite_at_92": "468dcd159b32aaf5bba39f144585ed691dca55cab515339327ac3cb8dc452abd",
    "no_fake_at_128": "5037a9ac29504427357086cc5e8cf5784d12ae4d6ba1e52a33d71e32cc08b359",
    "b/q7": "1358124a3b95c52d8d1b0ac5fc96d4e1ed119c5564e3ae2ac7a434f76480e26e",
    "c/q7": "29bb83875d83025c31ed6340b6cd63d2ed58b6a661d19994bc9fd0bdefd97032",
    "d/q7": "e74aba70fcbb1310e33747365a739c80f8728dfa3456807df43392d46d0288f8",
    "L0q/q7": "5e8829b03f1f34ac4b53df88cb18113162d88085fbfb0c34adcd56efe1ea9404",
    "b/q11": "b5651bb025a149979ce8edfaf30a0b1586800ccfb7b6ed3bbe4ae957b14cdef9",
    "c/q11": "65e5706ac287e376086ffba567f8e08b516b30ff0a8e7e8f8ac1cf824e29a13f",
    "d/q11": "0e5ec5a0597a4ac292c489b1fb04b31fe507d1e7580846eab9965418d1b1665d",
    "L0q/q11": "c7a67fa663fc0cf2f88b5ab077717583fb84a2cc356b33d8da9099175cebe235",
    "b/q25": "b4c95641dee3622e63cea3957f064cc01e7a0b547c402a45662fbe3e1f5822d1",
    "c/q25": "8ae963c2e19637bb19cfa9a6f9ef399e9a520f5769dbf7fca6c0a7bf72601125",
    "d/q25": "4e5b63e108bc21af118f8f29220d9f599b89e5914c9c0f02e2d024436baba086",
    "L0q/q25": "62702146df2f0426daec6152be0809a18ffb97d36554390df3a274509a593127",
    "b/N39": "cdb8077e42cd4889418b03e185830cfdf565e187abcabdbb23acf96a70526b83",
    "d/N48": "21d8c226f82073845542a4b834d7d3a37490f5b10d6ce8fa44b6fe2fb6df0a56",
    "d/N54": "a43df7c2adc3806f05789fe415b0057aa50970659e838c2e55502ebf93de2ada",
    "L1q/N30": "0370d4ebc9e6ed6b54e5f852d8798d9be52ee68ddd51312cef3c36fda69fcf09",
    "uniqueness/N30": "dc40fbe12e05036904d7fafaedb68299130aaf875a88da1ea4aafbcb9ca9a0f9",
    "uniqueness/N94": "d3e5175293e9eef598a7f06a001e712d9af2dc3b39526f7b43854893eeb75ca8",
}


def _family(name):
    fam, q = name.split("/q")
    p, q, N = next(size for size in FAMILY_SIZES if size[1] == int(q))
    pat = family_pattern(fam, p, q, N + 40, **FAMILY_PARAMS[fam])
    return compile_pattern(pat, N, guard=q + 2, run_validation=False)[0]


def _edge(fam, N):
    pat = family_pattern(fam, 7, 7, N + 40, **FAMILY_PARAMS[fam])
    return compile_pattern(pat, N, run_validation=False)[0]


def _forbidden(name):
    _, pattern, N = next(f for f in forbidden_continuations() if f[0] == name)
    return compile_pattern(pattern, N, run_validation=False)[0]


def _digest(L):
    rep = verify_lemma_suite(L)
    text = json.dumps([vars(i) for i in rep.instances], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_instances_pinned(corpus, name):
    assert _digest(corpus[name][0]) == PINNED[name]


@pytest.mark.parametrize("name", ("finite_at_92", "no_fake_at_128"))
def test_forbidden_instances_pinned(name):
    assert _digest(_forbidden(name)) == PINNED[name]


@pytest.mark.parametrize("name", FAMILIES)
def test_family_instances_pinned(name):
    assert _digest(_family(name)) == PINNED[name]


@pytest.mark.parametrize("fam,N", EDGES, ids=[f"{f}/N{N}" for f, N in EDGES])
def test_edge_instances_pinned(fam, N):
    assert _digest(_edge(fam, N)) == PINNED[f"{fam}/N{N}"]


def test_forbidden_failure_is_the_type1_v2_identity():
    rep = verify_lemma_suite(_forbidden("finite_at_92"))
    (bad,) = failures(rep)
    assert (bad.lemma, bad.degree, bad.identity) == (
        "lemma_type1", 85, "[vb xy v2] = 0")
    assert bad.detail == "lhs=(98, (0, 4)) rhs=(98, (0, 0))"

