import dataclasses
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genlib import random_flat_formula, random_r_free
from rpcalc import proofs
from rpcalc.formulas import Atom, Const, Or, RApp, Sequent
from rpcalc.proofs import (
    Proof,
    ax_false,
    ax_id,
    ax_rsubst,
    ax_true,
    check_g,
    check_pk,
    contr_l,
    counted_size,
    derive_scheme,
    dump_proof,
    load_proof,
    max_line_length,
    scheme_conclusion,
    weak_l,
    weak_r,
)
from rpcalc.prover import prove
from rpcalc.semantics import sequent_valid
from rpcalc.syntax import parse_formula, parse_sequent, sequent_length, sequent_tokens


def test_axioms_check():
    assert check_pk(ax_id(parse_formula("R(p, q)"))) == []
    assert check_pk(ax_true()) == []
    assert check_pk(ax_false()) == []


def test_ax_rsubst_example():
    p = ax_rsubst(Atom("p"), Atom("q"), (), ())
    assert p.conclusion == parse_sequent("~p | q, p | ~q, R(p) |- R(q)")
    assert check_pk(p) == []


def test_ax_rsubst_shape_is_strict():
    good = ax_rsubst(Atom("p"), Atom("q"), (Atom("r"),), (Const(0),))
    assert check_pk(good) == []
    # swapped antecedent order is rejected
    bad = Proof(
        Sequent(
            (good.conclusion.antecedent[1], good.conclusion.antecedent[0], good.conclusion.antecedent[2]),
            good.conclusion.succedent,
        ),
        "AxRSubst",
        (),
        (),
    )
    assert check_pk(bad)
    # mismatched context between the two oracle applications is rejected
    bad2 = Proof(
        parse_sequent("~p | q, p | ~q, R(r, p) |- R(s, q)"),
        "AxRSubst",
        (),
        (),
    )
    assert check_pk(bad2)


def test_cut_premise_disagreement_reported():
    left = weak_r(ax_id(Atom("p")), Atom("q"), 1)  # p |- p, q
    right = weak_l(ax_id(Atom("p")), Atom("r"), 0)  # r, p |- p
    node = Proof(Sequent((Atom("p"),), (Atom("p"),)), "Cut", (), (left, right))
    errors = check_pk(node)
    assert errors and errors[0].rule == "Cut"


def test_counted_size_excludes_weakening_and_exchange():
    p = ax_id(Atom("p"))
    assert counted_size(p) == 1
    p = weak_l(p, Atom("q"), 0)
    assert counted_size(p) == 1
    p = proofs.exch_l(p, 0)
    assert counted_size(p) == 1
    dup = weak_l(ax_id(Atom("p")), Atom("p"), 0)  # p, p |- p
    contracted = contr_l(dup, 0)
    assert counted_size(contracted) == 2


def test_max_line_length():
    p = weak_r(ax_true(), parse_formula("R(p, q)"), 0)
    assert max_line_length(p) == sequent_length(p.conclusion)


def walked_measures(p):
    """Counted lines and the longest printed conclusion, by walking
    every node of the tree."""
    walked = [node for _, node in proofs.nodes(p)]
    counted = sum(1 for node in walked if node.rule not in proofs.UNCOUNTED_TAGS)
    return counted, max(len(sequent_tokens(node.conclusion)) for node in walked)


@given(st.integers(0, 10_000))
def test_proof_measures_match_node_walks(seed):
    rng = random.Random(seed)
    a, b = random_r_free(rng, 1), random_r_free(rng, 1)
    r = RApp((a, Const(1)))
    # valid by construction, of cost at most 7; the R steps bring in
    # the substitution schemes, padding brings in weakenings
    proof = prove(Sequent((r, b), (Or(b, r),))).proof
    walked = [node for _, node in proofs.nodes(proof)]
    for node in walked[:: max(1, len(walked) // 5)]:  # the root and a few subtrees
        assert (counted_size(node), max_line_length(node)) == walked_measures(node)
    broken = dataclasses.replace(proof, premises=proof.premises[:-1])
    assert (broken.counted, broken.max_line) == walked_measures(broken)


def test_scheme_conclusions_and_sizes():
    a = parse_formula("p")
    expect = {
        "E1": "p, R(p) |- R(1)",
        "E2": "p, R(1) |- R(p)",
        "E3": "R(p) |- p, R(0)",
        "E4": "R(0) |- p, R(p)",
    }
    sizes = {"E1": 7, "E2": 7, "E3": 9, "E4": 9}
    for which, text in expect.items():
        proof = derive_scheme(which, a)
        assert proof.conclusion == parse_sequent(text)
        assert proof.conclusion == scheme_conclusion(which, a, (), ())
        assert check_pk(proof) == []
        assert counted_size(proof) == sizes[which]


def test_scheme_example_with_context():
    proof = derive_scheme("E4", parse_formula("q"), (parse_formula("r"),), ())
    assert proof.conclusion == parse_sequent("R(r, 0) |- q, R(r, q)")
    assert check_pk(proof) == []


def test_scheme_size_constancy():
    rng = random.Random(41)
    for which in ("E1", "E2", "E3", "E4"):
        sizes = set()
        for _ in range(12):
            a = random_flat_formula(rng, max_r=1, depth=rng.randint(0, 3))
            ctx_before = tuple(random_flat_formula(rng, max_r=0, depth=1) for _ in range(rng.randint(0, 3)))
            ctx_after = tuple(random_flat_formula(rng, max_r=0, depth=1) for _ in range(rng.randint(0, 3)))
            proof = derive_scheme(which, a, ctx_before, ctx_after)
            assert check_pk(proof) == []
            sizes.add(counted_size(proof))
        assert len(sizes) == 1


def test_scheme_instances_are_valid_sequents():
    rng = random.Random(42)
    for _ in range(25):
        a = random_flat_formula(rng, max_r=1, max_arity=2, depth=2)
        b = random_flat_formula(rng, max_r=1, max_arity=2, depth=2)
        ax = ax_rsubst(a, b, (Atom("r"),), ())
        assert sequent_valid(ax.conclusion)


def test_quantifier_rules_rejected_by_pk_checker():
    body = RApp((Atom("x"),))
    prem = ax_id(RApp((Const(0),)))
    node = proofs.all_l(prem, "x", body, Const(0))
    assert any("quantifier" in e.message for e in check_pk(node))
    assert not any(e.rule == "AllL" and "quantifier rule" in e.message for e in check_g(node))


def test_quantified_formula_rejected_by_pk_checker():
    p = ax_id(parse_formula("all x. x"))
    assert check_pk(p)
    assert check_g(p) == []


def test_removing_a_premise_breaks_the_proof():
    proof = derive_scheme("E1", parse_formula("p & q"))
    mutated = 0

    def strip(node):
        nonlocal mutated
        if node.premises and mutated == 0:
            mutated += 1
            return Proof(node.conclusion, node.rule, node.params, ())
        return Proof(
            node.conclusion,
            node.rule,
            node.params,
            tuple(strip(q) for q in node.premises),
        )

    broken = strip(proof)
    assert check_pk(broken)


def test_error_paths_are_preorder():
    bad1 = Proof(parse_sequent("p |- q"), "AxId", (), ())
    bad2 = Proof(parse_sequent("|- 0"), "AxTrue", (), ())
    root = Proof(parse_sequent("p |- q"), "Cut", (), (bad1, bad2))
    errors = check_pk(root)
    paths = [e.path for e in errors]
    assert paths == sorted(paths)


def test_json_roundtrip():
    proof = derive_scheme("E3", parse_formula("p | ~q"), (Atom("r"),), (Const(1),))
    text = dump_proof(proof)
    again = load_proof(text)
    assert again == proof
    assert check_pk(again) == []


def test_json_is_one_compact_line():
    proof = prove(parse_sequent("R(p & q), ~R(0) |- R(q & p) & ~R(0)")).proof
    text = dump_proof(proof)
    assert "\n" not in text
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    again = load_proof(text)
    assert again == proof
    assert check_pk(again) == []


def test_json_rejects_garbage():
    with pytest.raises(proofs.ProofFormatError):
        load_proof("{not json")
    with pytest.raises(proofs.ProofFormatError):
        load_proof('{"conclusion": "p |- p", "rule": "Nope", "premises": []}')
    with pytest.raises(proofs.ProofFormatError):
        load_proof('{"conclusion": "p p", "rule": "AxId", "premises": []}')


def test_quantifier_rule_json_params():
    body = RApp((Atom("x"),))
    prem = ax_id(RApp((Const(0),)))
    node = proofs.all_l(prem, "x", body, Const(0))
    data = proofs.proof_to_json(node)
    assert data["params"] == {"instance": "0", "var": "x"}
    assert proofs.proof_from_json(data) == node


def test_soundness_of_generated_proofs():
    rng = random.Random(43)
    for which in ("E1", "E2", "E3", "E4"):
        for _ in range(5):
            a = random_flat_formula(rng, max_r=1, max_arity=2, depth=2)
            proof = derive_scheme(which, a, (Atom("r"),), ())
            assert check_pk(proof) == []
            for _, node in proofs.nodes(proof):
                assert sequent_valid(node.conclusion)
