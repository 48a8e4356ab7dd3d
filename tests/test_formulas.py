import copy
import pickle
import random
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genlib import classify, random_ast, random_flat_formula, reference_fold
from rpcalc import formulas, semantics
from rpcalc.formulas import (
    And,
    Atom,
    CaptureError,
    Const,
    Exists,
    Forall,
    Not,
    Or,
    QuantifiedCostError,
    RApp,
    Sequent,
    and_all,
    cost,
    cost_sequent,
    fold_assign,
    free_atoms,
    is_quantifier_free,
    key_set,
    node_count,
    quantifier_depth,
    substitute,
    walk,
)
from rpcalc.syntax import (
    format_formula,
    format_sequent,
    length,
    parse_formula,
    parse_sequent,
    sequent_length,
    tokenize,
)


def test_cost_worked_example():
    assert cost(parse_formula("R(p & q, p & q, p, 0, 1, 1)")) == 5


def test_cost_trivia():
    assert cost(Const(1)) == 0
    assert cost(parse_formula("~p | R(0,1)")) == 2


def test_cost_rejects_quantifiers():
    with pytest.raises(QuantifiedCostError):
        cost(parse_formula("all x. x"))
    with pytest.raises(QuantifiedCostError):
        cost(RApp((parse_formula("ex y. y"),)))


def test_cost_sequent_examples():
    assert cost_sequent(parse_sequent("p |- p")) == 0
    assert cost_sequent(parse_sequent("R(p) |- R(p)")) == 2
    assert cost_sequent(parse_sequent("|- R(0,1)")) == 0


def test_cost_all_constant_arguments():
    assert cost(RApp((Const(0), Const(1), Const(1)))) == 0


def test_cost_permutation_invariant():
    rng = random.Random(5)
    for _ in range(50):
        args = [random_flat_formula(rng, max_r=0, depth=2) for _ in range(4)]
        shuffled = args[:]
        rng.shuffle(shuffled)
        assert cost(RApp(tuple(args))) == cost(RApp(tuple(shuffled)))


def test_cost_at_most_length():
    rng = random.Random(6)
    for _ in range(300):
        f = random_flat_formula(rng)
        assert cost(f) <= length(f)


def test_substitute_simple():
    f = parse_formula("ex y. x & y")
    assert substitute(f, "x", Const(1)) == parse_formula("ex y. 1 & y")


def test_substitute_bound_occurrence_untouched():
    f = parse_formula("all x. x")
    assert substitute(f, "x", Const(0)) is f


def test_substitute_reaches_r_arguments():
    f = parse_formula("R(x, 0)")
    assert substitute(f, "x", parse_formula("p | q")) == parse_formula("R(p | q, 0)")


def test_substitute_capture_detected():
    f = parse_formula("ex y. x & y")
    with pytest.raises(CaptureError) as err:
        substitute(f, "x", Atom("y"))
    assert err.value.binder == "y"


def test_substitute_identity():
    rng = random.Random(7)
    for _ in range(200):
        f = random_ast(rng, depth=3)
        for name in sorted(free_atoms(f)):
            assert substitute(f, name, Atom(name)) == f


def test_classify_examples():
    assert classify(parse_formula("all x. all y. R(x, y)")) == "pi1"
    assert classify(parse_formula("p & q")) == "quantifier_free"
    assert classify(parse_formula("ex p. all s. ~R(p, s)")) == "sigma2"


def test_classify_more_shapes():
    assert classify(parse_formula("ex x. ex y. x & y")) == "sigma1"
    assert classify(parse_formula("~(ex x. R(x))")) == "pi1"
    assert classify(parse_formula("(all x. R(x)) & (all y. ~R(y))")) == "pi1"
    assert classify(parse_formula("all x. ex y. R(x, y)")) == "other"
    assert classify(parse_formula("R(all x. x)")) == "other"


def test_quantifier_free_looks_into_r_arguments():
    assert is_quantifier_free(parse_formula("R(p, q & r)"))
    assert not is_quantifier_free(RApp((Forall("x", Atom("x")),)))
    # the fold is only defined on quantifier-free formulas, and finds a
    # quantifier inside an R argument too
    with pytest.raises(ValueError, match="fold_assign expects a quantifier-free formula"):
        fold_assign(RApp((Forall("x", Atom("x")),)), {})


@given(st.integers(min_value=0, max_value=10_000))
def test_random_asts_hash_and_compare(seed):
    rng = random.Random(seed)
    f = random_ast(rng, depth=3)
    g = random_ast(random.Random(seed), depth=3)
    assert f == g
    assert hash(f) == hash(g)


def test_sequent_is_ordered_pair_of_tuples():
    s = Sequent([Atom("p"), Atom("p")], [Atom("q")])
    assert s.antecedent == (Atom("p"), Atom("p"))
    assert s != Sequent([Atom("p")], [Atom("q")])


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("R")
    with pytest.raises(ValueError):
        Atom("Pascal")
    with pytest.raises(ValueError):
        Const(2)


# Formulas drawn as plain nested tuples, so that a test can build the
# same formula more than once, or after the first copy has died.
NAMES = st.sampled_from(["p", "q", "x", "y"])
SPECS = st.recursive(
    st.one_of(
        st.tuples(st.just("atom"), NAMES),
        st.tuples(st.just("const"), st.sampled_from([0, 1])),
    ),
    lambda inner: st.one_of(
        st.tuples(st.just("not"), inner),
        st.tuples(st.sampled_from(["and", "or"]), inner, inner),
        st.tuples(st.just("rapp"), st.lists(inner, max_size=3).map(tuple)),
        st.tuples(st.sampled_from(["all", "ex"]), NAMES, inner),
    ),
    max_leaves=12,
)


def build(spec):
    tag = spec[0]
    if tag == "atom":
        return Atom(spec[1])
    if tag == "const":
        return Const(spec[1])
    if tag == "not":
        return Not(build(spec[1]))
    if tag in ("and", "or"):
        return (And if tag == "and" else Or)(build(spec[1]), build(spec[2]))
    if tag == "rapp":
        return RApp(tuple(build(a) for a in spec[1]))
    return (Forall if tag == "all" else Exists)(spec[1], build(spec[2]))


def reference_cost(f):
    """Connectives, quantifier nodes and non-constant R arguments, by a
    walk over every occurrence."""
    total = 0
    for g in walk(f):
        if isinstance(g, (Not, And, Or, Forall, Exists)):
            total += 1
        elif isinstance(g, RApp):
            total += sum(1 for a in g.args if not isinstance(a, Const))
    return total


def reference_depth(f):
    if isinstance(f, (Forall, Exists)):
        return 1 + reference_depth(f.body)
    if isinstance(f, Not):
        return reference_depth(f.child)
    if isinstance(f, (And, Or)):
        return max(reference_depth(f.left), reference_depth(f.right))
    if isinstance(f, RApp):
        return max((reference_depth(a) for a in f.args), default=0)
    return 0


def reference_keys(f):
    """Atoms and constant-argument R strings, quantified subformulas
    skipped, by walking the whole tree."""
    out, stack = set(), [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add("a" + g.name)
        elif isinstance(g, Not):
            stack.append(g.child)
        elif isinstance(g, (And, Or)):
            stack += [g.left, g.right]
        elif isinstance(g, RApp):
            if all(isinstance(a, Const) for a in g.args):
                out.add("s" + "".join(str(a.bit) for a in g.args))
            else:
                stack += g.args
    return out


@given(SPECS)
def test_cached_measures_match_reference_walks(spec):
    f = build(spec)
    quantifier_free = not any(isinstance(g, (Forall, Exists)) for g in walk(f))
    assert is_quantifier_free(f) is quantifier_free
    assert f.cost == reference_cost(f)
    if quantifier_free:
        assert cost(f) == reference_cost(f)
    assert node_count(f) == sum(1 for _ in walk(f))
    assert quantifier_depth(f) == reference_depth(f)
    # the lexer counts the printed tokens, independently of the printer
    assert length(f) == len(tokenize(format_formula(f))[0]) - 1
    assert set(key_set(f)) == reference_keys(f)
    assert semantics._keys(f) == tuple(sorted(reference_keys(f)))


@given(st.lists(SPECS, max_size=3), st.lists(SPECS, max_size=3))
def test_sequent_length_matches_printed_tokens(ante, succ):
    s = Sequent(tuple(map(build, ante)), tuple(map(build, succ)))
    assert sequent_length(s) == len(tokenize(format_sequent(s))[0]) - 1


@given(st.integers(1, 200))
def test_key_sets_on_both_sides_of_the_cache_limit(n):
    # n clauses with an atom and an oracle string each: 2n keys, and
    # prefixes of the chain on both sides of the cached-set limit
    f = and_all(
        Or(Atom(f"k{i}"), Not(RApp(tuple(Const(int(b)) for b in format(i, "b")))))
        for i in range(n)
    )
    assert set(key_set(f)) == reference_keys(f)
    assert set(key_set(f.left if n > 1 else f)) == reference_keys(f.left if n > 1 else f)
    cached = [g._keys for g in walk(f) if g._keys]
    assert max(map(len, cached)) <= formulas._CACHED_KEYS


@given(SPECS)
def test_equal_formulas_are_one_node(spec):
    f, g = build(spec), build(spec)
    assert f is g
    assert parse_formula(format_formula(f)) is f


@given(SPECS)
def test_copies_return_the_interned_node(spec):
    f = build(spec)
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    data = pickle.dumps(f)
    assert pickle.loads(data) is f
    del f
    g = pickle.loads(data)
    assert g is build(spec)


@given(SPECS)
def test_unique_table_drops_dead_nodes(spec):
    before = len(formulas._TABLE)
    f = And(build(spec), Atom("fresh_only_here"))
    assert len(formulas._TABLE) > before
    ref = weakref.ref(f)
    del f
    assert ref() is None
    assert len(formulas._TABLE) == before


def test_nodes_are_immutable():
    f = parse_formula("p & q")
    with pytest.raises(AttributeError):
        f.left = Atom("r")
    with pytest.raises(AttributeError):
        del f.right
    assert f == And(Atom("p"), Atom("q"))


# DAG-shaped formulas: each step builds a node over earlier ones, so
# subterms repeat, as the tableau's cell fields do in compiled formulas.
DAG_LEAVES = (
    Atom("p"), Atom("q"), Atom("x"), Const(0), Const(1),
    RApp(()), RApp((Const(1),)), RApp((Const(0), Const(1))),
    RApp((Atom("p"),)), RApp((Atom("x"), Const(1))),
)
POOL_INDEX = st.integers(0, 1 << 16)
DAG_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("not"), POOL_INDEX),
        st.tuples(st.sampled_from(["and", "or"]), POOL_INDEX, POOL_INDEX),
        st.tuples(st.just("rapp"), st.lists(POOL_INDEX, max_size=3)),
    ),
    min_size=1,
    max_size=30,
)
BITS = st.sampled_from([0, 1])


def build_dag(steps):
    pool = list(DAG_LEAVES)
    for tag, *refs in steps:
        if tag == "rapp":
            node = RApp(tuple(pool[i % len(pool)] for i in refs[0]))
        elif tag == "not":
            node = Not(pool[refs[0] % len(pool)])
        else:
            node = (And if tag == "and" else Or)(*(pool[i % len(pool)] for i in refs))
        pool.append(node)
    return pool[-1]


@given(
    DAG_STEPS,
    st.dictionaries(st.sampled_from(["p", "q", "x", "y"]), BITS),
    st.dictionaries(st.text("01", max_size=3), BITS),
)
# ~R(p) with p = 1 and R(1) = 1: an argument that folds to a constant
@example([("not", DAG_LEAVES.index(RApp((Atom("p"),))))], {"p": 1}, {"1": 1})
def test_fold_matches_the_reference_fold_on_shared_subterms(steps, atoms, strings):
    f = build_dag(steps)
    assert fold_assign(f, atoms, strings) is reference_fold(f, atoms, strings)
    assert fold_assign(f, atoms) is reference_fold(f, atoms)


def doubling_dag(depth):
    """A formula whose tree doubles at each level (2^depth occurrences of
    p) while each level adds three distinct nodes."""
    g = Atom("p")
    for _ in range(depth):
        g = Or(And(g, Atom("q")), Not(g))
    return g


def distinct_nodes(f):
    seen, stack = {f}, [f]
    while stack:
        for c in stack.pop()._children():
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def test_fold_visits_each_distinct_node_once_per_call(monkeypatch):
    f = doubling_dag(30)
    distinct = len(distinct_nodes(f))
    assert distinct == 3 * 30 + 2
    calls = 0
    fold = formulas._fold

    def counted(*args):
        # fails at once, rather than after 2^30 calls, if shared nodes
        # are folded again
        nonlocal calls
        calls += 1
        assert calls <= 3 * distinct, "a shared node was folded more than once"
        return fold(*args)

    monkeypatch.setattr(formulas, "_fold", counted)
    for atoms in ({}, {"x": 1}):
        calls = 0
        assert fold_assign(f, atoms) is f
    small = doubling_dag(12)
    for bit in (0, 1):
        calls = 0
        assert fold_assign(f, {"q": bit}) is not f
        calls = 0
        assert fold_assign(small, {"q": bit}) is reference_fold(small, {"q": bit})
