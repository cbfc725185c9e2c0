"""Byte-identity pins for outputs that the demo digests do not cover.

Each digest is the sha256 of a command's standard output, or of the JSON of
a report, on seeded random cages over Q.  The Cayley-Bacharach pin reaches
exact elimination at rank-deficient degrees, on the two parts of its
partition, so a change to any rank, kernel basis or report shows here.  The
`cagekit hilbert` tables of node selections, the fubini slices,
Cayley-Bacharach's h of the whole grid and the counterexample's kernel
dimensions are proved from validation and take no node rank; their outputs
are pinned all the same.
The inscription pins cover every node's differentials: `propagate` reads a
tangent at each node, on random cages over Q and on a number-field demo
cage.  Those cages have integer forms, so the scaled-inscription pins add
an inscription at every node of a cage whose forms carry denominators and
of a Q(sqrt 2) cage.  The random_cage pins cover the cages and attempt
counts of fifty seeds per shape.  The node pins cover every node point:
`cagekit nodes` for all nodes, and the JSON of the simplicial and
supra-simplicial selections.  The hilbert_table pins cover rational point
sets with denominators, node sets and subsets of random cages, and node
sets and planted point sets over the fermat-conic and fermat-cubic-surface
fields, so a change to the bounds, kernels or exact fallbacks of any
table shows here.  The help pins cover the top-level and every
subcommand's --help text, so a parser change that alters an option, a
default or a help string shows here.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from cagekit import (FieldDescriptor, cayley_bacharach_check, hilbert_table,
                     random_cage)
from cagekit.cage import simplicial_indices, supra_simplicial_indices
from cagekit.cli import main
from cagekit.demos import build_demo
from cagekit.inscribe import (inscribe_with_tangent, make_tangent,
                              propagate_tangents)
from cagekit.serialize import (cage_to_json, node_to_json, report_to_json,
                               tangent_to_json, variety_to_json)
from test_inscribe import (random_fractional_tangent, random_sqrt2_cage,
                           with_denominators)
from test_verify import node_sets, planted_points

# (n, d) -> random_cage seed
CAGES = {(2, 5): 205, (3, 3): 303}

CLI_DIGESTS = {
    ("hilbert", 2, 5):
        "ec1e1cc7f8e874eaa111c1ed3fe91e385a7e4ad759a8231676f9b176e0b03883",
    ("verify", 2, 5):
        "ef3cf794e5ad5d503135f39e37b8285a5d1d1c449c01ffb878efa00e909df622",
    ("hilbert", 3, 3):
        "b7c4baac7a97f28e92a6ead3129da01c95b2ed4b64b42aed0faa776e5bac6258",
    ("verify", 3, 3):
        "365b7cc85237a9c6464c5cc4cb7391e3bba0c4ffa7a3801cabada80a1f02403b",
}

COUNTEREXAMPLE_DIGEST = (
    "d3ba40dac533db6477d44c86b511d436ed6eab93df371369f7f7496c4e4f5f7c")

CAYLEY_BACHARACH_DIGEST = (
    "8c7c38af7bec66c686d1102db739b13c84ded3f17b5e387e1d8d38feb739c3fd")


# subcommand ("" for the top level) -> digest of its --help text at 80
# columns, recorded with CPython 3.11
HELP_DIGESTS = {
    "": "8ea23147511ab2c5d2c64c82fa846560952eff35393afd42763e7cf37fdcefb8",
    "gen":
        "b68b23be97d523320c79df9b28cef4d22ca3091b33df88cf071f0c21d5a71cb9",
    "validate":
        "e2c0d1b2633ec90a859cfc72b6e52997cf36a43bb0d84fa210375570811b947a",
    "nodes":
        "49e0b53d38c8a99a5aa04c5d5d5070e0373fa21be5918ece39eab176b316ff66",
    "verify":
        "8ebc18756521b5b353bb899f3601dfd95ea3d6479fea87440e771845d8c5568f",
    "hilbert":
        "9783222561072eb2b0aa17dbdee4231b1f8ec8afd64328ae851ef8bafffe5507",
    "inscribe":
        "c3e253b4fc883c7b4ff5c9e12ef2c4ccf8378aad3ca8dd0eccd1320c8aedfe30",
    "propagate":
        "51ad4c5f1ee0f00375463caa822be6143d35a4a85777f637d371f10cdf186314",
    "counterexample":
        "cd8e93ffef46f0a725658129d7872f6c88c4557baf3d7a00a2f202a87c4ec1ef",
    "demo":
        "507977705e50f831f03046e5d88d6c607588ea8b1bd9232a12f491d485d8bf1c",
    "sample-grid":
        "6b876f7370a26d81ace9642390cb8f8b3c9c078755bdd71199e46256b6ab2b96",
}

# (n, d) -> random_cage seed, --node, --tangent
INSCRIPTIONS = {(2, 5): (205, "2,3", "1,-2"),
                (3, 3): (303, "1,2,3", "1,0,2;0,1,-1"),
                (4, 2): (402, "2,1,2,1", "1,2,-1,3")}

INSCRIPTION_DIGESTS = {
    ("inscribe", 2, 5):
        "8f2f1650b26513099b558bc23d165c928c9a03681163f21d46b3842997aeb5d1",
    ("propagate", 2, 5):
        "dfb71218037bed27eeb46ce336016b7f846607a3a543d7c6f94feeff486a60f2",
    ("inscribe", 3, 3):
        "82d54059ca6a8db3ab1307d3f94ac99f082119314249397ae2a7ce3a03417ec9",
    ("propagate", 3, 3):
        "d44a0210ed9e0a95816d569f126c6ffeae705c832816db515b5d3da84987fe5f",
    ("inscribe", 4, 2):
        "ce1e6543e93e921e8273819e6bcb92c6b8b72aa7c0a2181b918b97fdf779d677",
    ("propagate", 4, 2):
        "e662ffb483438c0db8187981563203d77c2642fb5dd5e52f2a420706c8e9dc86",
}

# (selection, n, d) -> digest of the nodes of the random_cage of
# INSCRIPTIONS[n, d]: `cagekit nodes` stdout for "all", else the JSON of
# node_to_json over the selection
NODE_DIGESTS = {
    ("all", 2, 5):
        "4b8669055e9098b59342c4f19a578cafe782e949053d67cb706233852bda0483",
    ("all", 3, 3):
        "db46c0e6b5aac2a5878ce60e716a99a8944ca4f40613206461b1feb8797476b8",
    ("all", 4, 2):
        "b9d8e18aea5f254ba3c869857aa0e9097a8c61cabd7002bcac3349d805e884d2",
    ("simplicial", 2, 5):
        "28529e1e6baaba0822e12d31f4bb2a41cb6b121d80e64fa2ca589d69518438ed",
    ("simplicial", 3, 3):
        "3c26e33f2c0e59558708502be07e23ddeaefc9da68ed76d8fa5dbfc6afe614fc",
    ("simplicial", 4, 2):
        "57ed5698a8a6cfa130e1a2d775edccc9bbd67529c708e83e40c2f404b411c20d",
    ("supra-simplicial", 2, 5):
        "e902a242725f2295bd0823427f599fc861f9dfb96ac3a762fcb73dc02caa207e",
    ("supra-simplicial", 3, 3):
        "db3bb6b1ecb34112c956963c10dc632fef9feccc16debf59af90bbb27a5ae96f",
    ("supra-simplicial", 4, 2):
        "e26379aeccbad926d74a82d89661645b967c67129101e035b237503e313646b9",
}

FERMAT_CUBIC_TANGENTS_DIGEST = (
    "199282394567a64b6e443c6d061f1a2637bc4f4a6ef35c454adfa25b18f19ea8")

# name -> cage, and the digest of [variety_to_json, forced tangents] for an
# inscription at each of its nodes
SCALED_CAGES = {
    "denominators": lambda: with_denominators(random_cage(61, 3, 2)),
    "sqrt2": lambda: random_sqrt2_cage(73, 2, 3),
}

SCALED_INSCRIPTION_DIGESTS = {
    "denominators":
        "c14bde1766768ff78a35f9397de736cab28069cc2d262a57beac8aa23cc993f7",
    "sqrt2":
        "e13fe58a0fe0e2c4204280fe95210294e8c1171fc38bc8a03a2d769feaecafab",
}

# name -> digest of the hilbert_table of each point set of
# hilbert_cases(name), each up to a degree past its stabilization
HILBERT_TABLE_DIGESTS = {
    "rationals":
        "82bf9535ee43b0143f321c5fb006250bd98c918e890573dabec5580ecabc5b40",
    "cages":
        "9115eb26cae562370eb01bbfab064380c5fceef5c60962849011c7bfc5deb910",
    "fermat-conic":
        "0d161829ce23f44cc67f7e9a0935d96afba3605c5bc52a03b989c83f6262f649",
    "fermat-cubic-surface":
        "4bbf5376535f85b03b6d6521f5f2899f51b3afa368f7d4f506405b35e1a25fc9",
}

# (n, d) -> digest of [attempts, cage_to_json] for seeds 1..50
RANDOM_CAGE_DIGESTS = {
    (2, 3): "9b6a6e9b4f0b74a4afd4fb13567047be0ad568572c4a0b42e2a3ce34bc6c0e0f",
    (3, 3): "581a05b200e7ede1f352ad2325ed656e9c69775cf97ffc2d886965c0d2e44d50",
    (2, 5): "ec843a70ff1acfae7ec26fd926f2b725d6d8186471c84b86df0a33a6b5bfec8e",
}


def hilbert_cases(name):
    # (points, k_max, field): rational point sets with denominators, p
    # among them; node sets and subsets of random cages; and node sets and
    # planted point sets over the two demo fields
    Q = FieldDescriptor.rationals()
    if name == "rationals":
        rng, p = random.Random(11), 2 ** 24 - 17
        sets = [planted_points(rng, Q, count) for count in range(6)]
        sets.append([(Fraction(a, p), Fraction(b, 3), Fraction(1))
                     for a in range(3) for b in range(3)]
                    + [(Fraction(5, p), Fraction(7), Fraction(1))])
        sets.append([(Fraction(i * p), Fraction(j), Fraction(1))
                     for i in range(3) for j in range(3)])
        return [(points, len(points), Q) for points in sets]
    if name == "cages":
        out = []
        for n, d, seed in ((2, 3, 211), (2, 4, 212), (3, 2, 213),
                           (3, 3, 214), (2, 5, 215)):
            cage = random_cage(seed, d, n)
            out += [(points, n * (d - 1) + 1, Q)
                    for points in node_sets(cage, random.Random(seed))]
        return out
    demo = build_demo(name).cage
    field, rng = demo.field, random.Random(name)
    cages = [demo] + ([random_cage(31, 3, 2, field)]
                      if name == "fermat-conic" else [])
    out = [(points, cage.n * (cage.d - 1) + 1, field) for cage in cages
           for points in node_sets(cage, rng)]
    out += [(points, len(points), field)
            for points in (planted_points(rng, field, count)
                           for count in range(4 if name == "fermat-conic"
                                              else 1))]
    return out


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(capsys, argv):
    assert main(argv) == 0
    return sha256(capsys.readouterr().out)


@pytest.mark.parametrize("command, n, d", sorted(CLI_DIGESTS))
def test_cli_output_is_unchanged(tmp_path, capsys, command, n, d):
    path = tmp_path / "cage.json"
    path.write_text(json.dumps(cage_to_json(random_cage(CAGES[n, d], d, n))))
    if command == "hilbert":
        argv = ["hilbert", "--cage", str(path), "--max-k",
                str(n * (d - 1) + 1), "--selection", "all"]
    else:
        argv = ["verify", "--cage", str(path), "--checks", "all",
                "--no-timestamp"]
    assert cli_digest(capsys, argv) == CLI_DIGESTS[command, n, d]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently across "
                           "Python versions; the pins are for 3.11")
@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_is_unchanged(monkeypatch, capsys, command):
    # argparse wraps help to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert sha256(capsys.readouterr().out) == HELP_DIGESTS[command]


def test_counterexample_output_is_unchanged(capsys):
    assert cli_digest(capsys, ["counterexample", "--no-timestamp"]) \
        == COUNTEREXAMPLE_DIGEST


def test_cayley_bacharach_reports_are_unchanged():
    # every degree 0..2d-3 of a seeded bipartition of the (2,5) cage
    cage = random_cage(CAGES[2, 5], 5, 2)
    indices = [nd.index for nd in cage.nodes()]
    chosen = set(random.Random(5).sample(indices, 12))
    part = ([i for i in indices if i in chosen],
            [i for i in indices if i not in chosen])
    reports = [report_to_json(cayley_bacharach_check(cage, part, k))
               for k in range(2 * cage.d - 2)]
    assert sha256(json.dumps(reports)) == CAYLEY_BACHARACH_DIGEST


@pytest.mark.parametrize("command, n, d", sorted(INSCRIPTION_DIGESTS))
def test_inscription_output_is_unchanged(tmp_path, capsys, command, n, d):
    seed, node, tangent = INSCRIPTIONS[n, d]
    path = tmp_path / "cage.json"
    path.write_text(json.dumps(cage_to_json(random_cage(seed, d, n))))
    argv = [command, "--cage", str(path), "--node", node,
            "--tangent", tangent]
    assert cli_digest(capsys, argv) == INSCRIPTION_DIGESTS[command, n, d]


@pytest.mark.parametrize("selection, n, d", sorted(NODE_DIGESTS))
def test_node_points_are_unchanged(tmp_path, capsys, selection, n, d):
    cage = random_cage(INSCRIPTIONS[n, d][0], d, n)
    if selection == "all":
        path = tmp_path / "cage.json"
        path.write_text(json.dumps(cage_to_json(cage)))
        digest = cli_digest(capsys, ["nodes", "--cage", str(path)])
    else:
        chosen = (simplicial_indices if selection == "simplicial"
                  else supra_simplicial_indices)(d, n)
        digest = sha256(json.dumps(
            [node_to_json(nd) for nd in cage.nodes_for(chosen)]))
    assert digest == NODE_DIGESTS[selection, n, d]


def test_number_field_tangents_are_unchanged():
    cage = build_demo("fermat-cubic-surface").cage
    node = cage.node((1, 2, 3))
    forced = propagate_tangents(
        cage, node, make_tangent(node, [(1, 0, 1), (0, 1, 2)]))
    tangents = [tangent_to_json(forced[i]) for i in sorted(forced)]
    assert sha256(json.dumps(tangents)) == FERMAT_CUBIC_TANGENTS_DIGEST


@pytest.mark.parametrize("name", sorted(SCALED_INSCRIPTION_DIGESTS))
def test_scaled_inscription_is_unchanged(name):
    # a tangent of dimension n - 1 with fractional entries at every node
    cage = SCALED_CAGES[name]()
    rng = random.Random(8)
    docs = []
    for node in cage.nodes():
        tangent = random_fractional_tangent(rng, node, cage.n - 1)
        forced = propagate_tangents(cage, node, tangent)
        docs.append([
            variety_to_json(inscribe_with_tangent(cage, node, tangent)),
            [tangent_to_json(forced[i]) for i in sorted(forced)]])
    assert sha256(json.dumps(docs)) == SCALED_INSCRIPTION_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(HILBERT_TABLE_DIGESTS))
def test_hilbert_tables_are_unchanged(name):
    tables = [hilbert_table(points, k_max, field=field)
              for points, k_max, field in hilbert_cases(name)]
    assert sha256(json.dumps(tables)) == HILBERT_TABLE_DIGESTS[name]


@pytest.mark.parametrize("n, d", sorted(RANDOM_CAGE_DIGESTS))
def test_random_cages_are_unchanged(n, d):
    docs = []
    for seed in range(1, 51):
        cage = random_cage(seed, d, n)
        docs.append([cage.attempts, cage_to_json(cage)])
    assert sha256(json.dumps(docs)) == RANDOM_CAGE_DIGESTS[n, d]
