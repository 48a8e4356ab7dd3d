import hashlib
import json

from genlib import QUANTIFIED_SUITE, brute_sat_q, random_quantified_sequents
from rpcalc.formulas import Atom, Not, foralls, sequent_free_atoms
from rpcalc.gprover import gprove
from rpcalc.proofs import Proof, ax_id, check_g, dump_proof
from rpcalc.prover import NOT_VALID, PROVED, UNKNOWN, prove
from rpcalc.semantics import eval_formula, validity_formula
from rpcalc.syntax import parse_formula, parse_sequent


def test_exists_expansion_example():
    r = gprove(parse_sequent("|- ex x. x | ~x"))
    assert r.status == PROVED
    assert check_g(r.proof) == []
    # the expansion path passes through |- A(0), A(1)
    texts = {str(node.conclusion) for _, node in _nodes(r.proof)}
    from rpcalc.syntax import format_sequent

    rendered = {format_sequent(node.conclusion) for _, node in _nodes(r.proof)}
    assert "|- 0 | ~0, 1 | ~1" in rendered


def _nodes(p):
    from rpcalc.proofs import nodes

    return list(nodes(p))


def test_single_exr_node_with_constant_instance():
    from rpcalc.formulas import Const, Or, Not as FNot, Atom as FAtom
    from rpcalc import prover

    body = Or(FAtom("x"), FNot(FAtom("x")))
    premise = prover.prove(parse_sequent("|- 0 | ~0")).proof
    from rpcalc.proofs import introduce

    node = introduce("ExR", (premise,), ("x", body), var="x", instance=Const(0))
    assert node.conclusion == parse_sequent("|- ex x. x | ~x")
    assert check_g(node) == []


def test_forall_left_example():
    r = gprove(parse_sequent("all x. R(x) |- R(0)"))
    assert r.status == PROVED
    assert check_g(r.proof) == []
    assert r.proof.conclusion == parse_sequent("all x. R(x) |- R(0)")


def test_invalid_quantified_sequent():
    r = gprove(parse_sequent("|- all x. R(x)"))
    assert r.status == NOT_VALID
    w = r.counterexample
    # the eigenvariable's value pins the falsifying instance
    assert eval_formula(parse_formula("all x. R(x)"), w) == 0


def test_quantifier_free_delegation_is_node_identical():
    for text in ("p |- p", "R(p & q) |- R(q & p)", "|- (R(p) & R(~p)) => (R(q) | R(~q))"):
        s = parse_sequent(text)
        assert gprove(s).proof == prove(s).proof


def test_eigenvariable_freshness():
    s = parse_sequent("all y0. R(y0) |- all y1. R(y1)")
    r = gprove(s)
    assert r.status == PROVED
    assert check_g(r.proof) == []
    eigens = {
        node.param("eigen")
        for _, node in _nodes(r.proof)
        if node.rule in ("AllR", "ExL")
    }
    assert eigens
    assert not (eigens & {"y0", "y1"})


def test_eigenvariable_violation_detected():
    # AllR with an eigenvariable free in the conclusion must be rejected;
    # the node is assembled by hand because builders self-validate.
    prem = ax_id(Atom("y"))
    bad = Proof(
        parse_sequent("y |- all x. x"),
        "AllR",
        (("eigen", "y"),),
        (prem,),
    )
    errors = check_g(bad)
    assert any("eigenvariable" in e.message for e in errors)


def test_fixed_quantified_suite():
    assert len(QUANTIFIED_SUITE) == 30
    for text in QUANTIFIED_SUITE:
        s = parse_sequent(text)
        r = gprove(s)
        assert r.status == PROVED, text
        assert check_g(r.proof) == [], text
        assert r.proof.conclusion == s
        # cross-validate with the oracle-enumeration decider
        closure = foralls(sorted(sequent_free_atoms(s)), validity_formula(s))
        assert brute_sat_q(Not(closure), max_arity=3) is None, text


def test_unknown_when_quantifier_hides_inside_r():
    from rpcalc.formulas import Forall, RApp, Sequent

    s = Sequent((), (RApp((Forall("x", Atom("x")),)),))
    r = gprove(s)
    assert r.status == UNKNOWN


def test_outcomes_are_byte_identical():
    # every outcome, not only proofs: seeded random quantified sequents
    # that gprove proves, refutes or leaves unknown, pinned down to the
    # proof, the countermodel and the reason
    digest = hashlib.sha256()
    statuses = set()
    for s in random_quantified_sequents(seed=909, count=300):
        r = gprove(s)
        statuses.add(r.status)
        record = [
            r.status,
            dump_proof(r.proof) if r.proof else None,
            r.counterexample.to_json() if r.counterexample else None,
            r.reason,
        ]
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert statuses == {PROVED, NOT_VALID, UNKNOWN}
    assert digest.hexdigest() == "30f3e97f97ffd6359fa42c2ac96ed29e9447317c3244f329a63780c2d5427160"


def test_countermodels_assign_every_free_atom():
    # atoms the search never reached are assigned too, and each
    # countermodel falsifies its input
    refuted = 0
    for s in random_quantified_sequents(seed=909, count=300):
        r = gprove(s)
        if r.status != NOT_VALID:
            continue
        refuted += 1
        assert sequent_free_atoms(s) <= r.counterexample.atoms.keys(), s
        assert eval_formula(validity_formula(s), r.counterexample) == 0, s
    assert refuted > 0


def test_search_is_depth_first_left_to_right():
    # the first premise of AndR is searched to the end before the second:
    # a countermodel there ends the search, and so does an unknown
    r = gprove(parse_sequent("|- p & R(all x. x)"))
    assert r.status == NOT_VALID
    assert r.counterexample.to_json() == {"atoms": {"p": 0}, "oracle": []}
    assert gprove(parse_sequent("|- R(all x. x) & p")).status == UNKNOWN


def test_depth_two_expansion_blowup_is_observable():
    r = gprove(parse_sequent("|- ex x. ex y. (x | ~y)"))
    assert r.status == PROVED
    assert r.stats.counted_sequents > 4
