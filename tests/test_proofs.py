import dataclasses
import json
import random
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genlib import generate_valid_sequents, random_flat_formula, random_r_free
from rpcalc import proofs, syntax
from rpcalc.formulas import And, Atom, Const, Not, Or, RApp, Sequent
from rpcalc.proofs import (
    CHAIN,
    SCHEME,
    Proof,
    ax_false,
    ax_id,
    ax_rsubst,
    ax_true,
    check_g,
    check_pk,
    counted_size,
    derive_scheme,
    dump_proof,
    load_proof,
    max_line_length,
    or_r,
    weak_l,
    weak_r,
)
from rpcalc.prover import prove
from rpcalc.semantics import sequent_valid
from rpcalc.syntax import ParseError, format_sequent, length, parse_formula, parse_sequent, sequent_length, tokenize
from test_syntax_reference import ascii_text, token_strings


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
    contracted = proofs.restructure("ContrL", dup, 0)
    assert counted_size(contracted) == 2


def test_max_line_length():
    p = weak_r(ax_true(), parse_formula("R(p, q)"), 0)
    assert max_line_length(p) == sequent_length(p.conclusion)


def walked_measures(p):
    """Counted lines and the longest printed conclusion, by walking
    every node of the tree and lexing each printed conclusion."""
    walked = [node for _, node in proofs.nodes(p)]
    counted = sum(1 for node in walked if node.rule not in proofs.UNCOUNTED_TAGS)
    return counted, max(len(tokenize(format_sequent(node.conclusion))[0]) - 1 for node in walked)


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
    # malformed weakenings and exchanges whose conclusion is the longest
    # line: a length derived from the premise's would come out wrong
    big = parse_formula(" & ".join(["R(p, q)"] * 40))
    assert length(big) > proof.max_line
    ante, succ = proof.conclusion.antecedent, proof.conclusion.succedent
    for node in (
        Proof(Sequent((big,) + ante, succ), "WeakL", (("pos", len(ante) + 1),), (proof,)),  # bad pos
        Proof(Sequent((big,) + ante, succ), "WeakL", (("pos", -1),), (proof,)),  # negative pos
        Proof(Sequent(ante, succ + (big, big)), "WeakR", (("pos", len(succ)),), (proof,)),  # two formulas
        Proof(Sequent(ante + (big,), succ), "ExchL", (("pos", 0),), (proof,)),  # not a swap
    ):
        assert check_pk(node)
        assert (node.counted, node.max_line) == walked_measures(node)


def reference_pad(p, side, target, keep):
    """One cedent's weakenings as `pad` once placed them: each position
    counted over a sorted list of the positions filled so far."""
    weaken = proofs.rule_for(side, "insert")
    placed = sorted(keep)
    for ti, f in enumerate(target):
        if ti in keep:
            continue
        p = proofs.restructure(weaken, p, sum(1 for existing in placed if existing < ti), f)
        placed.append(ti)
        placed.sort()
    return p


def test_pad_matches_the_counting_reference():
    rng = random.Random(62)
    for _ in range(300):
        ante, succ = (
            tuple(random_flat_formula(rng, depth=1) for _ in range(rng.randint(0, 6))) for _ in range(2)
        )
        keep_ante, keep_succ = (
            sorted(rng.sample(range(len(cedent)), rng.randint(0, len(cedent)))) for cedent in (ante, succ)
        )
        kept = Sequent(tuple(ante[i] for i in keep_ante), tuple(succ[i] for i in keep_succ))
        start = Proof(kept, "AxId", (), ())
        expected = reference_pad(reference_pad(start, "ante", ante, keep_ante), "succ", succ, keep_succ)
        padded = proofs.pad(start, Sequent(ante, succ), keep_ante, keep_succ)
        assert padded.conclusion == Sequent(ante, succ)
        assert padded == expected


def scheme_conclusion(which: str, a, before, after) -> Sequent:
    """The sequent that substitution scheme `which` derives, stated
    apart from derive_scheme."""
    before, after = tuple(before), tuple(after)
    r_a = RApp(before + (a,) + after)
    r_one = RApp(before + (Const(1),) + after)
    r_zero = RApp(before + (Const(0),) + after)
    if which == "E1":
        return Sequent((a, r_a), (r_one,))
    if which == "E2":
        return Sequent((a, r_one), (r_a,))
    if which == "E3":
        return Sequent((r_a,), (a, r_zero))
    if which == "E4":
        return Sequent((r_zero,), (a, r_a))
    raise ValueError(f"unknown scheme {which!r}")


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


@pytest.mark.parametrize("which", ["E1", "E2", "E3", "E4"])
def test_scheme_proof_text_is_pinned(which, data_dir):
    # one scheme per test, so a change to one construction shows in its own test
    proof = derive_scheme(which, parse_formula("p & q"), (Atom("r"),), (Const(1),))
    pinned = (data_dir / "proofs" / f"scheme_{which.lower()}.json").read_text()
    assert dump_proof(proof) + "\n" == pinned


def test_scheme_example_with_context():
    proof = derive_scheme("E4", parse_formula("q"), (parse_formula("r"),), ())
    assert proof.conclusion == parse_sequent("R(r, 0) |- q, R(r, q)")
    assert check_pk(proof) == []
    with pytest.raises(ValueError, match="unknown scheme 'E5'"):
        derive_scheme("E5", parse_formula("p"))


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
    node = proofs.introduce("AllL", (prem,), ("x", body), var="x", instance=Const(0))
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
    # below a good node, the bad ones are still found, at their own paths
    assert [e.path for e in check_pk(weak_l(root, Atom("r"), 0))] == [(0,) + path for path in paths]


def test_a_shared_bad_node_is_reported_at_every_path():
    # the check validates a shared node object once, but the report names
    # it at every path that reaches it, as for two equal copies
    bad = bare("p |- q")
    shared = bare("p |- q", "Cut", bad, bad)
    copies = bare("p |- q", "Cut", bad, bare("p |- q"))
    errors = check_pk(shared)
    assert errors == check_pk(copies)
    assert [e.path for e in errors] == [(), (0,), (1,)]


def test_check_validates_each_distinct_node_once(monkeypatch):
    validate = proofs._validate
    calls = []

    def counting(node, allow_quantifiers):
        calls.append(id(node))
        return validate(node, allow_quantifiers)

    # the provers' own checks run before the wrapper goes in
    built = [prove(s).proof for s in generate_valid_sequents(seed=1004, count=10, max_cost=10)]
    monkeypatch.setattr(proofs, "_validate", counting)
    shared = 0
    for proof in built:
        # the node objects in memory, reached through their premises (a
        # chain is one object; nodes() would expand it into fresh ones)
        walked, stack = [], [proof]
        while stack:
            node = stack.pop()
            walked.append(id(node))
            stack.extend(node.premises)
        distinct = set(walked)
        calls.clear()
        assert check_pk(proof) == []
        assert sorted(calls) == sorted(distinct)
        shared += len(distinct) < len(walked)
    # the R steps of criterion 4's templates reuse their schemes
    assert shared >= 5


def explicit_steps(chain):
    """The explicit nodes that a chain stands for, from its conclusion up."""
    return [node for _, node in proofs.nodes(chain)][: len(chain.params)]


def test_builders_keep_weakenings_and_exchanges_as_one_chain():
    p = weak_l(ax_id(Atom("p")), Atom("q"), 0)
    p = proofs.move(weak_r(p, Atom("r"), 1), "ante", 0, 1)
    assert (p.rule, p.params) == (CHAIN, (("ExchL", 0), ("WeakR", 1), ("WeakL", 0)))
    assert p.premises == (ax_id(Atom("p")),)
    assert p.conclusion == parse_sequent("p, q |- p, r")
    assert [node.rule for node in explicit_steps(p)] == ["ExchL", "WeakR", "WeakL"]
    assert [format_sequent(node.conclusion) for node in explicit_steps(p)] == [
        "p, q |- p, r", "q, p |- p, r", "q, p |- p",
    ]
    # a contraction is counted, so it is a node of its own over the chain
    contracted = proofs.restructure("ContrL", weak_l(p, Atom("p"), 0), 0)
    assert contracted.rule == "ContrL" and contracted.premises[0].rule == CHAIN
    assert check_pk(contracted) == []


def test_a_chain_equals_its_explicit_nodes():
    proof = prove(parse_sequent("p, q |- q & p, r")).proof
    explicit = next(proofs.nodes(proof))[1]
    assert proof.rule == CHAIN and explicit.rule == "ExchR"
    assert proof == explicit and explicit == proof
    assert hash(proof) == hash(explicit)
    assert proof == load_proof(dump_proof(proof))
    # one position or one premise apart is another proof
    moved = Proof(proof.conclusion, CHAIN, (("ExchR", 1),), proof.premises)
    assert moved != proof and moved != explicit
    other_base = Proof(proof.conclusion, CHAIN, proof.params, (ax_true(),))
    assert other_base != proof and explicit != other_base


def test_deep_chains_compare_at_the_default_recursion_limit():
    # 3,001 nodes: an identity axiom, a weakening and 2,999 exchanges
    chain = weak_l(ax_id(Atom("p")), Atom("q"), 0)
    for _ in range(2_999):
        chain = proofs.exch_l(chain, 0)
    assert chain.rule == CHAIN and len(chain.params) == 3_000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100_000)  # proof JSON nests one level per node
    try:
        text = dump_proof(chain)
        first, second = load_proof(text), load_proof(text)
    finally:
        sys.setrecursionlimit(limit)
    assert first == second
    assert chain == first and first == chain
    assert hash(chain) == hash(first)
    assert check_pk(chain) == [] and check_pk(first) == []


POOL = [parse_formula(text) for text in ("p", "q", "~p", "p & q", "R(p, 0)", "r | s")]
QUANTIFIED = parse_formula("all x. R(x)")
STRUCTURAL = ("WeakL", "WeakR", "ExchL", "ExchR")


@given(st.data())
def test_chain_check_agrees_with_its_explicit_nodes(data):
    draw = data.draw
    formulas = st.lists(st.sampled_from(POOL), max_size=3)
    # the base's own check is not the chain's
    base = Proof(Sequent(tuple(draw(formulas)), tuple(draw(formulas))), "AxId", (), ())
    p = base
    for tag in draw(st.lists(st.sampled_from(STRUCTURAL), min_size=1, max_size=6)):
        c = p.conclusion
        size = len(c.antecedent if tag.endswith("L") else c.succedent)
        if tag.startswith("Weak"):
            p = proofs.restructure(tag, p, draw(st.integers(0, size)), draw(st.sampled_from(POOL)))
        elif size >= 2:
            p = proofs.restructure(tag, p, draw(st.integers(0, size - 2)))
    assume(p.rule == CHAIN)
    ante, succ = list(p.conclusion.antecedent), list(p.conclusion.succedent)
    steps = list(p.params)
    mutant = draw(st.sampled_from(["none", "kept order", "formula", "exchange off by one", "bool", "quantified"]))
    cedent = draw(st.sampled_from([c for c in (ante, succ) if c]))
    i = draw(st.integers(0, len(cedent) - 1))
    k = draw(st.integers(0, len(steps) - 1))
    if mutant == "kept order":
        j = draw(st.integers(0, len(cedent) - 1))
        cedent[i], cedent[j] = cedent[j], cedent[i]
    elif mutant == "formula":
        cedent[i] = draw(st.sampled_from(POOL))
    elif mutant == "exchange off by one":
        exchanges = [n for n, (tag, _) in enumerate(steps) if tag.startswith("Exch")]
        assume(exchanges)
        k = draw(st.sampled_from(exchanges))
        steps[k] = (steps[k][0], steps[k][1] + draw(st.sampled_from([-1, 1])))
    elif mutant == "bool":
        steps[k] = (steps[k][0], draw(st.booleans()))
    elif mutant == "quantified":
        i = draw(st.integers(0, len(ante)))
        ante.insert(i, QUANTIFIED)
        steps.insert(0, ("WeakL", i))
    chain = Proof(Sequent(tuple(ante), tuple(succ)), CHAIN, tuple(steps), (base,))
    for allow_quantifiers in (False, True):
        alone = proofs._validate(chain, allow_quantifiers) is None
        stepwise = all(proofs._validate(node, allow_quantifiers) is None for node in explicit_steps(chain))
        assert alone == stepwise
        if mutant in ("none", "quantified"):
            assert alone == (allow_quantifiers or mutant == "none")
        elif mutant == "bool":
            assert not alone
    # the report names the explicit nodes, as for the chain loaded from JSON
    loaded = load_proof(dump_proof(chain))
    for check in (check_pk, check_g):
        assert [str(e) for e in check(chain)] == [str(e) for e in check(loaded)]


def pinned_chain_mutants():
    """A chain of weakenings and an exchange between an AxRSubst and an
    OrR node, and the whole proof with the chain broken in five ways."""
    p, q, s, t, u = (Atom(name) for name in "pqstu")
    base = ax_rsubst(p, q, (), ())  # ~p | q, p | ~q, R(p) |- R(q)
    ante, r_q = (s,) + base.conclusion.antecedent, RApp((q,))
    padded = proofs.pad(base, Sequent(ante, (u, r_q, t)), [1, 2, 3], [1])
    chain = proofs.move(padded, "succ", 1, 2)  # s, ~p | q, p | ~q, R(p) |- u, t, R(q)
    good = or_r(chain)
    exchange, *weakenings = chain.params
    assert exchange == ("ExchR", 1)

    def pinned(ante, steps):
        # under the good proof's OrR node, which fixes the chain's conclusion
        broken = Proof(Sequent(ante, chain.conclusion.succedent), CHAIN, steps, (base,))
        return Proof(good.conclusion, "OrR", (), (broken,))

    return good, {
        "wrong kept order": pinned((s, ante[2], ante[1], ante[3]), chain.params),
        "wrong inserted formula": pinned((p,) + ante[1:], chain.params),  # p where s goes in
        "exchange one position off": pinned(ante, (("ExchR", 0), *weakenings)),
        "bool position": pinned(ante, (("ExchR", True), *weakenings)),  # True == 1, but no position
        "quantified formula weakened in": or_r(weak_l(chain, QUANTIFIED, 0)),
    }


def test_chain_mutants_fail_in_memory_and_as_explicit_nodes():
    good, mutants = pinned_chain_mutants()
    assert check_pk(good) == [] and check_g(good) == []
    for name, proof in mutants.items():
        loaded = load_proof(dump_proof(proof))
        for check in (check_pk, check_g):
            errors = check(proof)
            assert [str(e) for e in errors] == [str(e) for e in check(loaded)], name
            if check is check_g and name == "quantified formula weakened in":
                assert errors == [], name
                continue
            assert errors, name
            if name == "wrong inserted formula":
                # as for explicit weakenings, whose checks never read the
                # formula they insert, only the node below can see it
                assert [e.path for e in errors] == [()], name
            else:
                assert any(e.path for e in errors), name  # a step of the chain fails


def test_a_chain_holds_only_weakenings_and_exchanges():
    p = ax_id(Atom("p"))
    dup = weak_l(p, Atom("p"), 0)  # p, p |- p
    split = weak_l(p, Atom("q"), 1)  # p, q |- p
    chains = {
        "contraction": Proof(p.conclusion, CHAIN, (("ContrL", 0),), (dup,)),
        "weakening and contraction": Proof(
            parse_sequent("q, p |- p"), CHAIN, (("WeakL", 0), ("ContrL", 0)), (dup,)
        ),
        "logical rule": Proof(parse_sequent("p & q |- p"), CHAIN, (("AndL", 0),), (split,)),
        "chain tag": Proof(split.conclusion, CHAIN, ((CHAIN, 1),), (p,)),
        "unknown tag": Proof(split.conclusion, CHAIN, (("Nope", 1),), (p,)),
        "no steps": Proof(p.conclusion, CHAIN, (), (p,)),
    }
    for name, chain in chains.items():
        # such a chain stands for no explicit nodes: it fails as itself
        for check in (check_pk, check_g):
            assert [(e.path, e.rule) for e in check(chain)] == [((), CHAIN)], name
    # the same steps as explicit nodes pass
    assert check_pk(proofs.restructure("ContrL", dup, 0)) == []
    assert check_pk(proofs.introduce("AndL", (split,))) == []
    assert check_pk(weak_l(p, Atom("q"), 1)) == []


SCHEME_NAMES = ("E1", "E2", "E3", "E4")
# formulas for A and the contexts: the constants and a quantified formula
# come up often, and A may recur in a context
SCHEME_ARGS = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), Const(0), Const(1), QUANTIFIED]),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.lists(inner, max_size=2).map(lambda args: RApp(tuple(args))),
    ),
    max_leaves=5,
)


@given(st.data())
def test_a_scheme_node_is_its_derivation(data):
    draw = data.draw
    which = draw(st.sampled_from(SCHEME_NAMES))
    a = draw(SCHEME_ARGS)
    before, after = (tuple(draw(st.lists(SCHEME_ARGS, max_size=2))) for _ in range(2))
    if draw(st.booleans()):
        before = before + (a,)  # A inside a context too
    check_scheme_node(which, a, before, after, draw(st.sampled_from([w for w in SCHEME_NAMES if w != which])))


@pytest.mark.parametrize(
    "which, a, before, after",
    [
        ("E3", QUANTIFIED, (Atom("q"),), ()),  # quantified A in the succedent
        ("E1", Const(1), (), (Atom("p"),)),  # A the constant
        ("E4", Const(0), (Const(0),), ()),  # A the constant, and in a context
        ("E2", parse_formula("p & q"), (parse_formula("p & q"),), (Atom("r"),)),  # A inside a context
    ],
)
def test_named_scheme_nodes_are_their_derivations(which, a, before, after):
    for other in SCHEME_NAMES:
        if other != which:
            check_scheme_node(which, a, before, after, other)


def check_scheme_node(which, a, before, after, other):
    """The scheme node against derive_scheme(which, a, before, after), and
    ten mutants of it, one of them with scheme `other`'s conclusion."""
    node, derived = proofs.scheme(which, a, before, after), derive_scheme(which, a, before, after)
    assert (node.rule, node.params, node.premises) == (SCHEME, (which, a, before, after), ())
    assert node == derived and derived == node
    assert (node.counted, node.max_line) == (derived.counted, derived.max_line)
    assert dump_proof(node) == dump_proof(derived)
    assert [(path, n.conclusion, n.rule, n.params) for path, n in proofs.nodes(node)] == [
        (path, n.conclusion, n.rule, n.params) for path, n in proofs.nodes(derived)
    ]
    for check in (check_pk, check_g):
        assert check(node) == check(derived)
    assert check_g(node) == []
    # params that stand for no derivation of this conclusion: the node is
    # seen as itself, and fails as itself
    mutants = {
        "another scheme's conclusion": Proof(proofs.scheme(other, a, before, after).conclusion, SCHEME, node.params, ()),
        "contexts swapped": Proof(node.conclusion, SCHEME, (which, a, after, before), ()),
        "another A": Proof(node.conclusion, SCHEME, (which, Not(a), before, after), ()),
        "unknown scheme": Proof(node.conclusion, SCHEME, ("E5", a, before, after), ()),
        "A a string": Proof(node.conclusion, SCHEME, (which, "p", before, after), ()),
        "a context a list": Proof(node.conclusion, SCHEME, (which, a, before, list(after)), ()),
        "a context holding a string": Proof(node.conclusion, SCHEME, (which, a, before, after + ("p",)), ()),
        "three params": Proof(node.conclusion, SCHEME, (which, a, before), ()),
        "params a list": Proof(node.conclusion, SCHEME, [which, a, before, after], ()),
        "a premise": Proof(node.conclusion, SCHEME, node.params, (ax_true(),)),
    }
    # with A the constant, E1 and E2 (or E3 and E4) conclude the same
    # sequent, and so can the contexts swapped
    if mutants["another scheme's conclusion"].conclusion == node.conclusion:
        del mutants["another scheme's conclusion"]
    if proofs.scheme(which, a, after, before).conclusion == node.conclusion:
        del mutants["contexts swapped"]
    for name, mutant in mutants.items():
        assert mutant != node and node != mutant, name
        assert list(proofs.nodes(mutant))[0] == ((), mutant), name
        for check in (check_pk, check_g):
            assert [(e.path, e.rule) for e in check(mutant)] == [((), SCHEME)], name


def test_the_prover_makes_each_scheme_one_node():
    proof = prove(parse_sequent("R(p & q), p |- R(q & p)")).proof
    found, stack = [], [proof]
    while stack:
        node = stack.pop()
        found += [node] if node.rule == SCHEME else []
        stack.extend(node.premises)
    assert {node.params[0] for node in found} == {"E1", "E2", "E3", "E4"}
    for node in found:
        assert node.counted == (7 if node.params[0] in ("E1", "E2") else 9)
        assert node == derive_scheme(*node.params)
    assert check_pk(proof) == []
    # a file holds the derivations, so the loaded proof has no scheme node
    loaded = load_proof(dump_proof(proof))
    assert loaded == proof and all(node.rule != SCHEME for _, node in proofs.nodes(loaded))


def test_walks_and_equality_expand_a_shared_node_once():
    s = proofs.scheme("E3", parse_formula("p & q"), (Atom("r"),), ())
    chain = proofs.exch_l(weak_l(ax_id(Atom("p")), Atom("q"), 0), 0)
    root = Proof(s.conclusion, "Cut", (), (s, s, chain, chain))  # unchecked: only its walk matters
    derived = derive_scheme(*s.params)
    chains, stack = set(), [derived]
    while stack:
        node = stack.pop()
        chains |= {id(node)} if node.rule == CHAIN else set()
        stack.extend(node.premises)
    proofs._scheme_tree("E3")  # made once per process
    with mock.patch.object(proofs, "_scheme_tree", wraps=proofs._scheme_tree) as trees, mock.patch.object(
        proofs, "_chain_steps", wraps=proofs._chain_steps
    ) as steps:
        walked = list(proofs.nodes(root))
        assert (trees.call_count, steps.call_count) == (1, 1)
        # the explicit nodes under either copy are the same objects
        below = [[node for path, node in walked if path[:1] == (i,)] for i in range(4)]
        assert len(below[0]) == 19 and all(x is y for x, y in zip(below[0], below[1]))
        assert len(below[2]) == 3 and all(x is y for x, y in zip(below[2], below[3]))
        trees.reset_mock()
        steps.reset_mock()
        assert Proof(s.conclusion, "Cut", (), (s, s)) == Proof(s.conclusion, "Cut", (), (derived, derived))
        assert (trees.call_count, steps.call_count) == (1, len(chains))
        trees.reset_mock()
        # a dump writes the scheme's derivation once, shared by both places
        data = proofs.proof_to_json(root)
        assert trees.call_count == 1 and data["premises"][0] is data["premises"][1]
        assert data["premises"][0] == proofs.proof_to_json(derived)


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
    with pytest.raises(proofs.ProofFormatError, match="unknown rule tag 'Chain'"):
        # files hold a chain's explicit steps, never the in-memory node
        load_proof('{"conclusion": "q, p |- p", "rule": "Chain", "params": {"WeakL": 0}, "premises": []}')
    with pytest.raises(proofs.ProofFormatError, match="unknown rule tag 'Scheme'"):
        load_proof('{"conclusion": "p, R(p) |- R(1)", "rule": "Scheme", "params": {}, "premises": []}')
    with pytest.raises(proofs.ProofFormatError):
        load_proof('{"conclusion": "p p", "rule": "AxId", "premises": []}')
    with pytest.raises(proofs.ProofFormatError):
        load_proof('{"conclusion": "p |- p", "rule": "AxId", "params": 5, "premises": []}')
    with pytest.raises(proofs.ProofFormatError):
        load_proof('{"conclusion": "p |- p", "rule": "AxId", "params": ["ab"], "premises": []}')
    with pytest.raises(proofs.ProofFormatError, match="bad formula parameter formula: expected string"):
        load_proof('{"conclusion": "p |- p", "rule": "Cut", "params": {"formula": ["p"]}, "premises": []}')


@given(st.one_of(token_strings, ascii_text))
@settings(max_examples=1000)
@example("p\x0b |- q")
@example("\x0b |- q")
@example("p, |- q")
@example("R(p, q), r |- s")
@example("p # c |- q")
@example("(p, q) |- r")
@example("p, p |- R(p, R(q, p)), p")
def test_load_path_agrees_with_parse_sequent(text):
    # load_proof parses a conclusion formula by formula through a memo and
    # falls back to the whole text, and looks a formula parameter up in the
    # same memo; the outcome is the plain parse's.  The parameter is the
    # antecedent's text, which the memo holds when it is one formula.
    ante = text.split("|-")[0]
    data = json.dumps({"conclusion": text, "rule": "Cut", "params": {"formula": ante}, "premises": []})
    try:
        want = parse_sequent(text)
    except ParseError as exc:
        with pytest.raises(proofs.ProofFormatError) as info:
            load_proof(data)
        assert str(info.value) == str(exc)
        return
    with mock.patch.object(syntax, "parse_sequent", wraps=syntax.parse_sequent) as whole:
        try:
            got = load_proof(data)
        except proofs.ProofFormatError as exc:
            got = exc
    if "#" not in text:
        # a sequent without a comment never needs the whole-text parse
        assert whole.call_count == 0, text
    try:
        param = parse_formula(ante)
    except ParseError as exc:
        assert str(got) == f"bad formula parameter formula: {exc}"
        return
    assert got.conclusion == want, text  # nodes are hash-consed: equal means the same objects
    assert got.param("formula") is param, text


def test_quantifier_rule_json_params():
    body = RApp((Atom("x"),))
    prem = ax_id(RApp((Const(0),)))
    node = proofs.introduce("AllL", (prem,), ("x", body), var="x", instance=Const(0))
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


def bare(text, rule="AxId", *premises, **params):
    """A proof node taken as given, with no builder involved."""
    parsed = {k: parse_formula(v) if k in ("formula", "instance") else v for k, v in params.items()}
    return Proof(parse_sequent(text), rule, tuple(sorted(parsed.items())), tuple(premises))


def leaf(text):
    return bare(text)


# One broken node per rule tag and failure: the root's exact message,
# as `rpcalc check` prints it.  These go to check_pk, the quantifier
# rules below to check_g (the first of them is a good node).
CHECK_MESSAGES = [
    (bare("p |- p", "Nope"), "[root] Nope: unknown rule tag 'Nope'"),
    (bare("all x. x |- all x. x"), "[root] AxId: quantified formula in a propositional proof"),
    (bare("p |- q"), "[root] AxId: conclusion is not of the form A |- A"),
    (bare("p, p |- p"), "[root] AxId: conclusion is not of the form A |- A"),
    (bare("p |- p", "AxId", leaf("p |- p")), "[root] AxId: expects 0 premises, found 1"),
    (bare("p |- 1", "AxTrue"), "[root] AxTrue: conclusion is not |- 1"),
    (bare("0 |- p", "AxFalse"), "[root] AxFalse: conclusion is not 0 |-"),
    (
        bare("p |- q", "AxRSubst"),
        "[root] AxRSubst: expects antecedent ~A|B, A|~B, R(...,A,...) and a single succedent formula",
    ),
    (bare("p, q, R(p) |- R(q)", "AxRSubst"), "[root] AxRSubst: first antecedent formula is not of the form ~A | B"),
    (
        bare("~p | q, q | ~p, R(p) |- R(q)", "AxRSubst"),
        "[root] AxRSubst: second antecedent formula is not A | ~B for the same A, B",
    ),
    (bare("~p | q, p | ~q, p |- R(q)", "AxRSubst"), "[root] AxRSubst: principal formulas are not R applications"),
    (bare("~p | q, p | ~q, R(p) |- R(q, q)", "AxRSubst"), "[root] AxRSubst: R applications have different arities"),
    (
        bare("~p | q, p | ~q, R(r, p) |- R(s, q)", "AxRSubst"),
        "[root] AxRSubst: no argument position carries A on the left and B on the right with equal context",
    ),
    (bare("p |- p", "WeakL"), "[root] WeakL: expects 1 premises, found 0"),
    (bare("q, p |- p", "WeakL", leaf("p |- p"), pos=2), "[root] WeakL: bad position 2"),
    (bare("q, p |- p", "WeakL", leaf("p |- p")), "[root] WeakL: bad position None"),
    (bare("q, p |- p", "WeakL", leaf("p |- p"), pos="0"), "[root] WeakL: bad position '0'"),
    (bare("q, p |- p, r", "WeakL", leaf("p |- p"), pos=0), "[root] WeakL: side cedent changed"),
    (
        bare("q, p |- p", "WeakL", leaf("p |- p"), pos=1),
        "[root] WeakL: conclusion is not the premise with one formula inserted at pos",
    ),
    (bare("p |- p, q", "WeakR", leaf("p |- p"), pos=-1), "[root] WeakR: bad position -1"),
    (bare("r, p |- p, q", "WeakR", leaf("p |- p"), pos=1), "[root] WeakR: side cedent changed"),
    (
        bare("p |- q, p", "WeakR", leaf("p |- p"), pos=1),
        "[root] WeakR: conclusion is not the premise with one formula inserted at pos",
    ),
    (bare("q, p |- p", "ExchL", leaf("p, q |- p"), pos=1), "[root] ExchL: bad position 1"),
    (bare("q, p |- r", "ExchL", leaf("p, q |- p"), pos=0), "[root] ExchL: side cedent changed"),
    (
        bare("p, q |- p", "ExchL", leaf("p, q |- p"), pos=0),
        "[root] ExchL: conclusion is not the premise with adjacent formulas swapped at pos",
    ),
    (bare("p |- q, p", "ExchR", leaf("p |- p, q"), pos=1), "[root] ExchR: bad position 1"),
    (bare("|- q, p", "ExchR", leaf("p |- p, q"), pos=0), "[root] ExchR: side cedent changed"),
    (
        bare("p |- p, q", "ExchR", leaf("p |- p, q"), pos=0),
        "[root] ExchR: conclusion is not the premise with adjacent formulas swapped at pos",
    ),
    (bare("p |- q", "ContrL", leaf("p, p |- q"), pos=1), "[root] ContrL: bad position 1"),
    (bare("p |- r", "ContrL", leaf("p, p |- q"), pos=0), "[root] ContrL: side cedent changed"),
    (bare("p |- q", "ContrL", leaf("p |- q"), pos=0), "[root] ContrL: premise must contain one extra copy"),
    (
        bare("p |- q", "ContrL", leaf("p, r |- q"), pos=0),
        "[root] ContrL: premise is not the conclusion with the pos formula duplicated",
    ),
    (bare("q |- p", "ContrR", leaf("q |- p, p"), pos=None), "[root] ContrR: bad position None"),
    (bare("r |- p", "ContrR", leaf("q |- p, p"), pos=0), "[root] ContrR: side cedent changed"),
    (bare("q |- p", "ContrR", leaf("q |- p, p, p"), pos=0), "[root] ContrR: premise must contain one extra copy"),
    (
        bare("q |- p", "ContrR", leaf("q |- r, p"), pos=0),
        "[root] ContrR: premise is not the conclusion with the pos formula duplicated",
    ),
    (bare("~p |- q", "NotL", leaf("|- q, p"), leaf("|- q, p")), "[root] NotL: expects 1 premises, found 2"),
    (bare("p |- q", "NotL", leaf("|- q, p")), "[root] NotL: conclusion antecedent does not start with a negation"),
    (bare("|- q", "NotL", leaf("|- q, p")), "[root] NotL: conclusion antecedent does not start with a negation"),
    (
        bare("~p |- q", "NotL", leaf("|- p, q")),
        "[root] NotL: premise is not Gamma |- Delta, A for conclusion ~A, Gamma |- Delta",
    ),
    (bare("q |- p", "NotR", leaf("p, q |-")), "[root] NotR: conclusion succedent does not end with a negation"),
    (
        bare("q |- ~p", "NotR", leaf("q, p |-")),
        "[root] NotR: premise is not A, Gamma |- Delta for conclusion Gamma |- Delta, ~A",
    ),
    (bare("p | q |- r", "AndL", leaf("p, q |- r")), "[root] AndL: conclusion antecedent does not start with a conjunction"),
    (bare("p & q |- r", "AndL", leaf("q, p |- r")), "[root] AndL: premise is not A, B, Gamma |- Delta"),
    (bare("|- p & q", "AndR", leaf("|- p")), "[root] AndR: expects 2 premises, found 1"),
    (
        bare("|- p | q", "AndR", leaf("|- p"), leaf("|- q")),
        "[root] AndR: conclusion succedent does not end with a conjunction",
    ),
    (
        bare("r |- p & q", "AndR", leaf("r |- p"), leaf("|- q")),
        "[root] AndR: premises are not Gamma |- Delta, A and Gamma |- Delta, B",
    ),
    (
        bare("p & q |- r", "OrL", leaf("p |- r"), leaf("q |- r")),
        "[root] OrL: conclusion antecedent does not start with a disjunction",
    ),
    (
        bare("p | q |- r", "OrL", leaf("q |- r"), leaf("p |- r")),
        "[root] OrL: premises are not A, Gamma |- Delta and B, Gamma |- Delta",
    ),
    (bare("|- p & q", "OrR", leaf("|- p, q")), "[root] OrR: conclusion succedent does not end with a disjunction"),
    (bare("|- p | q", "OrR", leaf("|- p, q, r")), "[root] OrR: premise is not Gamma |- Delta, A, B"),
    (bare("p |- q", "Cut", leaf("p |- q, r")), "[root] Cut: expects 2 premises, found 1"),
    (bare("p |- q", "Cut", leaf("p |-"), leaf("r, p |- q")), "[root] Cut: premises lack a cut formula"),
    (bare("p |- q", "Cut", leaf("p |- q, r"), leaf("p |- q")), "[root] Cut: premises disagree on the cut formula"),
    (
        bare("p |- q", "Cut", leaf("p |- q, r"), leaf("r, p |- q"), formula="s"),
        "[root] Cut: stated cut formula differs from the premises",
    ),
    (
        bare("p |- q", "Cut", leaf("p |- r"), leaf("r, p |- q")),
        "[root] Cut: contexts do not match Gamma |- Delta, A with A, Gamma |- Delta",
    ),
    (
        bare("all x. R(x) |- R(0)", "AllL", leaf("R(0) |- R(0)"), instance="0"),
        "[root] AllL: quantifier rule is not part of the propositional calculus",
    ),
]

QUANTIFIER_MESSAGES = [
    (bare("all x. R(x) |- R(0)", "AllL", leaf("R(0) |- R(0)"), instance="0", var="x"), None),
    (bare("all x. R(x) |- R(0)", "AllL", leaf("R(0) |- R(0)")), "[root] AllL: missing instantiation formula"),
    (
        bare("R(0) |- R(0)", "AllL", leaf("R(0) |- R(0)"), instance="0"),
        "[root] AllL: conclusion antecedent does not start with a universal formula",
    ),
    (
        bare("all x. R(x) |- R(0)", "AllL", leaf("R(0) |- R(0)"), instance="0", var="y"),
        "[root] AllL: stated variable differs from the binder",
    ),
    (
        bare("all x. ex y. x | y |- 1", "AllL", leaf("ex y. y | y |- 1"), instance="y"),
        "[root] AllL: instantiation would capture: substitution would capture under the binder for 'y'",
    ),
    (
        bare("all x. R(x) |- R(0)", "AllL", leaf("R(1) |- R(0)"), instance="0"),
        "[root] AllL: premise principal formula is not the stated instance of the body",
    ),
    (
        bare("all x. R(x) |- R(0)", "AllL", leaf("R(0) |- R(1)"), instance="0"),
        "[root] AllL: premise principal formula is not the stated instance of the body",
    ),
    (
        bare("|- ex x. R(x)", "ExR", leaf("|- R(1)"), leaf("|- R(1)"), instance="1"),
        "[root] ExR: expects 1 premises, found 2",
    ),
    (bare("|- ex x. R(x)", "ExR", leaf("|- R(1)")), "[root] ExR: missing instantiation formula"),
    (
        bare("|- all x. R(x)", "ExR", leaf("|- R(1)"), instance="1"),
        "[root] ExR: conclusion succedent does not end with an existential formula",
    ),
    (
        bare("|- ex x. R(x)", "ExR", leaf("|- R(1)"), instance="1", var="z"),
        "[root] ExR: stated variable differs from the binder",
    ),
    (
        bare("|- ex x. all y. x | y", "ExR", leaf("|- all y. y | y"), instance="y"),
        "[root] ExR: instantiation would capture: substitution would capture under the binder for 'y'",
    ),
    (
        bare("|- ex x. R(x)", "ExR", leaf("|-"), instance="1"),
        "[root] ExR: premise principal formula is not the stated instance of the body",
    ),
    (bare("|- all x. R(x)", "AllR", leaf("|- R(y0)")), "[root] AllR: missing eigenvariable"),
    (bare("|- all x. R(x)", "AllR", leaf("|- R(y0)"), eigen=0), "[root] AllR: missing eigenvariable"),
    (
        bare("|- ex x. R(x)", "AllR", leaf("|- R(y0)"), eigen="y0"),
        "[root] AllR: conclusion succedent does not end with a universal formula",
    ),
    (
        bare("R(y0) |- all x. R(x)", "AllR", leaf("R(y0) |- R(y0)"), eigen="y0"),
        "[root] AllR: eigenvariable 'y0' occurs free in the conclusion",
    ),
    (
        bare("|- all x. ex y. x | y", "AllR", leaf("|- ex y. y | y"), eigen="y"),
        "[root] AllR: eigenvariable substitution would capture: substitution would capture under the binder for 'y'",
    ),
    (
        bare("|- all x. R(x)", "AllR", leaf("|- R(y1)"), eigen="y0"),
        "[root] AllR: premise principal formula is not the body at the eigenvariable",
    ),
    (bare("ex x. R(x) |-", "ExL", leaf("R(y0) |-")), "[root] ExL: missing eigenvariable"),
    (
        bare("all x. R(x) |-", "ExL", leaf("R(y0) |-"), eigen="y0"),
        "[root] ExL: conclusion antecedent does not start with an existential formula",
    ),
    (
        bare("ex x. R(x) |- y0", "ExL", leaf("R(y0) |- y0"), eigen="y0"),
        "[root] ExL: eigenvariable 'y0' occurs free in the conclusion",
    ),
    (
        bare("ex x. R(x) |-", "ExL", leaf("R(y0), q |-"), eigen="y0"),
        "[root] ExL: premise principal formula is not the body at the eigenvariable",
    ),
]

# after the quantifier cases, so that adding them left the ids of the
# cases above unchanged
SCHEME_MESSAGES = [
    (
        Proof(parse_sequent("p, R(p) |- R(1)"), SCHEME, ("E2", Atom("p"), (), ()), ()),
        "[root] Scheme: conclusion is not the stated scheme's",
    ),
    (
        Proof(parse_sequent("p, R(p) |- R(1)"), SCHEME, ("E5", Atom("p"), (), ()), ()),
        "[root] Scheme: params are not a scheme, a formula and two tuples of formulas",
    ),
    (
        Proof(parse_sequent("p, R(p) |- R(1)"), SCHEME, ("E1", Atom("p"), (), ()), (leaf("p |- p"),)),
        "[root] Scheme: expects 0 premises, found 1",
    ),
    (
        # a good scheme node fails where its derivation does, and is
        # reported as its derivation's nodes, whose root is a Cut
        Proof(parse_sequent("all x. x, R(all x. x) |- R(1)"), SCHEME, ("E1", parse_formula("all x. x"), (), ()), ()),
        "[root] Cut: quantified formula in a propositional proof",
    ),
]


@pytest.mark.parametrize(
    "checker, node, expected",
    [(check_pk, node, expected) for node, expected in CHECK_MESSAGES]
    + [(check_g, node, expected) for node, expected in QUANTIFIER_MESSAGES]
    + [(check_pk, node, expected) for node, expected in SCHEME_MESSAGES],
)
def test_check_messages_are_pinned(checker, node, expected):
    errors = [e for e in checker(node) if e.path == ()]
    assert [str(e) for e in errors] == ([] if expected is None else [expected])


@pytest.mark.parametrize("pos, text", [(False, "q, p |- p"), (True, "p, q |- p")])
def test_boolean_position_is_rejected(pos, text):
    # True and False are ints to isinstance; as positions they are bad input
    node = bare(text, "WeakL", ax_id(Atom("p")), pos=pos)
    assert [str(e) for e in check_pk(node)] == [f"[root] WeakL: bad position {pos!r}"]


def test_exchange_over_a_shorter_premise_is_reported():
    # the premise has no pair at pos to swap back; this must be a
    # rejection, not an exception out of the checker
    node = bare("q, p |- p", "ExchL", leaf("|- p"), pos=0)
    assert str(check_pk(node)[0]) == (
        "[root] ExchL: conclusion is not the premise with adjacent formulas swapped at pos"
    )
