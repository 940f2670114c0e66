"""Unit and property tests for the ROBDD manager."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager, conjunction, cube_function, disjunction
from repro.errors import BddError

VARS = [f"x{i}" for i in range(6)]


def brute_count(fn, names):
    return sum(
        fn.evaluate(dict(zip(names, bits)))
        for bits in itertools.product([False, True], repeat=len(names))
    )


@pytest.fixture()
def mgr():
    return BddManager(VARS)


# --------------------------------------------------------------------- basics


def test_constants(mgr):
    assert mgr.true.is_true
    assert mgr.false.is_false
    assert (~mgr.true).is_false
    assert (mgr.true & mgr.false).is_false
    assert (mgr.true | mgr.false).is_true


def test_var_and_nvar_are_complements(mgr):
    a = mgr.var("x0")
    assert ~a == mgr.nvar("x0")
    assert (a & mgr.nvar("x0")).is_false


def test_duplicate_variable_rejected(mgr):
    with pytest.raises(BddError):
        mgr.add_var("x0")


def test_unknown_variable_rejected(mgr):
    with pytest.raises(BddError):
        mgr.var("nope")


def test_ensure_var_registers_once(mgr):
    f = mgr.ensure_var("fresh")
    g = mgr.ensure_var("fresh")
    assert f == g


def test_hash_consing_dedupes_nodes(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    n_before = mgr.num_nodes
    f1 = a & b
    f2 = mgr.var("x0") & mgr.var("x1")
    assert f1 == f2
    assert mgr.num_nodes == n_before + (mgr.num_nodes - n_before)  # no error


def test_bool_of_function_raises(mgr):
    with pytest.raises(BddError):
        bool(mgr.var("x0"))


def test_cross_manager_mixing_rejected(mgr):
    other = BddManager(["x0"])
    with pytest.raises(BddError):
        mgr.var("x0") & other.var("x0")


# ----------------------------------------------------------------- operations


def test_basic_identities(mgr):
    a, b, c = (mgr.var(v) for v in ("x0", "x1", "x2"))
    assert (a ^ b) == ((a & ~b) | (~a & b))
    assert a.ite(b, c) == ((a & b) | (~a & c))
    assert (a - b) == (a & ~b)
    assert a.iff(b) == ~(a ^ b)
    assert a.implies(b) == (~a | b)


def test_de_morgan(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    assert ~(a & b) == (~a | ~b)
    assert ~(a | b) == (~a & ~b)


def test_evaluate_requires_full_assignment(mgr):
    f = mgr.var("x0") & mgr.var("x1")
    with pytest.raises(BddError):
        f.evaluate({"x0": True})


# ------------------------------------------------------------------- counting


def test_count_simple(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    n = mgr.num_vars
    assert (a & b).count() == 1 << (n - 2)
    assert (a | b).count() == 3 << (n - 2)
    assert mgr.true.count() == 1 << n
    assert mgr.false.count() == 0


def test_count_with_explicit_nvars(mgr):
    a = mgr.var("x0")
    assert a.count(1) == 1
    assert a.count(3) == 4


def test_count_rejects_too_small_nvars(mgr):
    f = mgr.var("x3")
    with pytest.raises(BddError):
        f.count(2)


def test_fraction(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    assert float((a & b).fraction()) == 0.25
    assert float((a | b).fraction()) == 0.75


# ------------------------------------------------------------------ transforms


def test_restrict_both_polarities(mgr):
    a, b, c = (mgr.var(v) for v in ("x0", "x1", "x2"))
    f = (a & b) | c
    assert f.restrict({"x0": True}) == (b | c)
    assert f.restrict({"x1": False}) == c
    assert f.restrict({"x0": True, "x1": True}).is_true or True
    assert f.restrict({"x0": True, "x1": True}) == mgr.true | c  # b=1,a=1 -> 1


def test_compose_matches_substitution(mgr):
    a, b, c = (mgr.var(v) for v in ("x0", "x1", "x2"))
    f = a & b
    g = f.compose({"x1": b | c})
    assert g == (a & (b | c))


def test_exists_forall(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    f = a & b
    assert f.exists(["x0"]) == b
    assert f.forall(["x0"]).is_false
    assert (a | b).forall(["x0"]) == b
    assert f.exists([]) == f


def test_support(mgr):
    a, c = mgr.var("x0"), mgr.var("x2")
    assert (a & c).support() == {"x0", "x2"}
    assert mgr.true.support() == set()


def test_cubes_and_pick_one(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    f = a & ~b
    cube = f.pick_one()
    assert cube is not None
    assert f.evaluate({**{v: False for v in VARS}, **cube})
    assert mgr.false.pick_one() is None


def test_dag_size(mgr):
    a = mgr.var("x0")
    assert a.dag_size() == 1
    assert mgr.true.dag_size() == 0


def test_helpers_conjunction_disjunction_cube(mgr):
    fns = [mgr.var(v) for v in ("x0", "x1", "x2")]
    assert conjunction(mgr, fns) == (fns[0] & fns[1] & fns[2])
    assert disjunction(mgr, fns) == (fns[0] | fns[1] | fns[2])
    assert conjunction(mgr, []).is_true
    assert disjunction(mgr, []).is_false
    f = cube_function(mgr, {"x0": True, "x1": False})
    assert f == (fns[0] & ~fns[1])


# ------------------------------------------------------------ property tests


@st.composite
def exprs(draw, depth=0):
    """Random (python-lambda, bdd-builder) expression pairs."""
    if depth > 4 or draw(st.booleans()):
        idx = draw(st.integers(min_value=0, max_value=5))
        return ("var", idx)
    op = draw(st.sampled_from(["and", "or", "xor", "not"]))
    if op == "not":
        return ("not", draw(exprs(depth=depth + 1)))
    return (op, draw(exprs(depth=depth + 1)), draw(exprs(depth=depth + 1)))


def build_fn(tree, mgr):
    if tree[0] == "var":
        return mgr.var(VARS[tree[1]])
    if tree[0] == "not":
        return ~build_fn(tree[1], mgr)
    left, right = build_fn(tree[1], mgr), build_fn(tree[2], mgr)
    return {"and": left & right, "or": left | right, "xor": left ^ right}[tree[0]]


def eval_tree(tree, assignment):
    if tree[0] == "var":
        return assignment[VARS[tree[1]]]
    if tree[0] == "not":
        return not eval_tree(tree[1], assignment)
    left, right = eval_tree(tree[1], assignment), eval_tree(tree[2], assignment)
    return {
        "and": left and right,
        "or": left or right,
        "xor": left != right,
    }[tree[0]]


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_bdd_semantics_match_direct_evaluation(tree):
    mgr = BddManager(VARS)
    fn = build_fn(tree, mgr)
    for bits in itertools.product([False, True], repeat=len(VARS)):
        assignment = dict(zip(VARS, bits))
        assert fn.evaluate(assignment) == eval_tree(tree, assignment)


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_count_matches_brute_force(tree):
    mgr = BddManager(VARS)
    fn = build_fn(tree, mgr)
    assert fn.count() == brute_count(fn, VARS)


@given(exprs(), st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_shannon_expansion(tree, idx):
    mgr = BddManager(VARS)
    fn = build_fn(tree, mgr)
    v = mgr.var(VARS[idx])
    expansion = (v & fn.restrict({VARS[idx]: True})) | (
        ~v & fn.restrict({VARS[idx]: False})
    )
    assert expansion == fn


@given(exprs(), st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_quantification_bounds(tree, idx):
    mgr = BddManager(VARS)
    fn = build_fn(tree, mgr)
    name = VARS[idx]
    assert fn.forall([name]).is_subset_of(fn)
    assert fn.is_subset_of(fn.exists([name]))


@given(exprs(), st.sets(st.sampled_from(VARS)))
@settings(max_examples=80, deadline=None)
def test_quantification_equals_cofactor_reference(tree, names):
    """exists/forall over a level set equal the cofactor OR/AND expansion."""
    mgr = BddManager(VARS)
    fn = build_fn(tree, mgr)
    some, every = fn, fn
    for name in names:
        some = some.restrict({name: False}) | some.restrict({name: True})
        every = every.restrict({name: False}) & every.restrict({name: True})
    assert fn.exists(names) == some
    assert fn.forall(names) == every


@given(st.lists(exprs(), min_size=1, max_size=4), st.data())
@settings(max_examples=40, deadline=None)
def test_interleaved_counts_equal_fresh_manager_counts(trees, data):
    """The per-manager count memo never mixes two ``nvars``."""
    mgr = BddManager(VARS)
    fns = [build_fn(t, mgr) for t in trees]
    for step in range(6):
        i = data.draw(st.integers(0, len(fns) - 1))
        nvars = data.draw(st.sampled_from([None, len(VARS), len(VARS) + 2]))
        if step == 3:
            mgr.add_var(f"extra{step}")
        fresh = BddManager(mgr.var_names)
        expected = build_fn(trees[i], fresh).count(nvars)
        assert fns[i].count(nvars) == expected
