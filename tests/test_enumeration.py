"""Brute-force enumeration: generating functions, tangled reports, task lists."""

import ast
import random
import re
import tracemalloc
from itertools import permutations
from math import factorial
from typing import Sequence

import pytest

from promotion_sorting import (
    BudgetError,
    GenFun,
    InternalError,
    Poset,
    WParams,
    antichain,
    basins,
    build_w_poset,
    chain,
    funnel_and_basins,
    generate_posets,
    is_natural,
    order,
    ordinal_sum,
    sequence_shape,
    sorting_gf,
    tangled_report,
)
from promotion_sorting.enumeration import _check_budget, _tangled_task
from promotion_sorting.posets import _bits
from promotion_sorting.promotion import _advance, labels_of

LAMBDA = Poset(3, [(0, 2), (1, 2)])
T222 = ordinal_sum(antichain(2), ordinal_sum(antichain(2), antichain(2)))
# the only 6-element poset with three basins: three disjoint 2-chains
THREE_BASINS = Poset(6, [(0, 3), (1, 4), (2, 5)])
W2221 = build_w_poset(WParams(2, 2, 2, 1))


def _is_tangled_pos(above: Sequence[int], pos: list[int]) -> bool:
    """Whether a labeling whose label ``n`` sits on a basin is tangled.

    ``pos[-1]`` must be a basin ``b``; the array is promoted in place, and
    the walk stops at the first holder of the label just below ``b``'s that
    is not strictly above ``b``.  The tangled-chain lemma, stated once in the
    :mod:`~promotion_sorting.enumeration` module docstring, is why that
    decides it.
    """
    up = above[pos[-1]]
    for i in range(len(pos) - 2, 0, -1):
        if not (up >> pos[i]) & 1:
            return False
        _advance(above, pos)
    return bool((up >> pos[0]) & 1)


def _masks(p: Poset, b: int) -> tuple[int, int]:
    """Bitmasks of the basin b's funnel and of its alive elements, from the
    definitions: y is alive when some funnel element f has f <= y."""
    funnel = funnel_and_basins(p)[b]
    return (sum(1 << f for f in funnel),
            sum(1 << y for y in range(p.n) if any(p.leq(f, y) for f in funnel)))


def _searched_blocks(p: Poset) -> list[tuple[int, int, int, int]]:
    """The (r, b, funnel, alive) blocks a tangled count searches, by
    definition: r alive for the basin b and not in b's funnel, with the
    masks of :func:`_masks`."""
    blocks = []
    for b in basins(p):
        funnel, alive = _masks(p, b)
        blocks += [(r, b, funnel, alive) for r in range(p.n) if (alive & ~funnel) >> r & 1]
    return blocks


def _per_labeling_tangled_task(p: Poset, r: int, b: int) -> int:
    """The tangled kernel before the level-wise search, kept as the second
    route: every labeling of the block (r, b) promoted until its chain breaks."""
    others = [e for e in range(p.n) if e != r and e != b]
    return sum(1 for perm in permutations(others) if _is_tangled_pos(p.above, [*perm, r, b]))


def test_lambda_gfs():
    assert sorting_gf(LAMBDA).coeffs == (2, 4, 0)
    assert sorting_gf(LAMBDA).trimmed() == (2, 4)
    assert sorting_gf(LAMBDA).cumulative().coeffs == (2, 6, 6)


def test_t222_gfs():
    f = sorting_gf(T222)
    assert f.trimmed() == (8, 64, 216, 192, 240)
    assert sorting_gf(T222).cumulative().coeffs == (8, 72, 288, 480, 720, 720)


def test_antichain_gf():
    assert sorting_gf(antichain(3)).coeffs == (6, 0, 0)
    assert sorting_gf(antichain(2)).coeffs == (2, 0)
    assert sorting_gf(antichain(3)).cumulative().coeffs == (6, 6, 6)


def test_two_chain_cumulative():
    assert sorting_gf(chain(2)).coeffs == (1, 1)
    assert sorting_gf(chain(3)).coeffs == (1, 3, 2)
    assert sorting_gf(chain(2)).cumulative().coeffs == (1, 2)


def test_genfun_invariants():
    for p in (LAMBDA, T222, chain(4), antichain(4)):
        f = sorting_gf(p)
        g = f.cumulative()
        assert len(f.coeffs) == p.n
        assert sum(f.coeffs) == factorial(p.n)
        assert g.coeffs == f.cumulative().coeffs
        assert all(x <= y for x, y in zip(g.coeffs, g.coeffs[1:]))
        assert g.coeffs[-1] == factorial(p.n)


def test_genfun_str_and_trim():
    f = GenFun((2, 4, 0))
    assert str(f) == "2 4 0"
    assert f.trimmed() == (2, 4)
    assert GenFun((0, 0)).trimmed() == (0,)
    assert len(f) == 3


def test_genfun_stores_coefficients_as_given():
    assert GenFun([2.9, 4, 0]).coeffs == (2.9, 4, 0)


def test_tangle_report_total_is_the_sum_of_its_split():
    from promotion_sorting import TangleReport

    assert TangleReport((1, 2)).total == 3
    report = tangled_report(chain(4))
    assert report.total == sum(report.by_element) == sorting_gf(chain(4)).coeffs[-1]


def test_gf_against_direct_count():
    from promotion_sorting import order

    for p in (LAMBDA, chain(3), Poset(4, [(0, 2), (1, 2), (2, 3)])):
        counts = [0] * p.n
        for perm in permutations(range(1, p.n + 1)):
            counts[order(p, perm)] += 1
        assert sorting_gf(p).coeffs == tuple(counts)


def test_worker_determinism():
    # Pool path must agree with the serial path coefficient by coefficient
    for p in (T222, Poset(5, [(0, 2), (1, 2), (2, 3), (2, 4)])):
        assert sorting_gf(p, workers=2).coeffs == sorting_gf(p).coeffs
        assert tangled_report(p, workers=2) == tangled_report(p)


def test_worker_count_is_clamped(monkeypatch):
    # a fake pool records the process count it is started with and runs the
    # tasks in this process, so nothing is ever spawned; THREE_BASINS has
    # nine root tails, so its gf tasks outnumber the three CPUs.  The count
    # is min(workers, CPUs) whatever the task count, one pool serves every
    # call with that count, and a call with another count replaces it
    from promotion_sorting import enumeration, generate_posets, scan_catalog

    pools = []
    dispatched = []

    class FakePool:
        def __init__(self, processes):
            self.processes = processes
            self.terminated = False
            pools.append(self)

        def terminate(self):
            self.terminated = True

        def imap(self, worker, tasks, chunksize):
            dispatched.append((len(tasks), chunksize))
            return map(worker, tasks)

    monkeypatch.setattr(enumeration, "Pool", FakePool)
    monkeypatch.setattr(enumeration, "_pool", None)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    cat = generate_posets(4, connected=True)
    assert sorting_gf(THREE_BASINS, workers=64) == sorting_gf(THREE_BASINS)
    assert scan_catalog(cat, workers=64) == scan_catalog(cat)
    # growth runs one task per parent: 1, 2, 5 and 16 parents for n = 2..5,
    # and the one-task level runs in this process
    assert generate_posets(5, workers=64) == generate_posets(5)
    # a batch is a quarter of the tasks per process, as Pool.map cuts them,
    # but at most 64 tasks
    for size in (768, 769, 5000):
        assert list(enumeration._run_chunks(abs, range(-size, 0), 3)) == list(range(size, 0, -1))
    assert [(pool.processes, pool.terminated) for pool in pools] == [(3, False)]
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
    assert scan_catalog(cat, workers=1000) == scan_catalog(cat)
    assert [(pool.processes, pool.terminated) for pool in pools] == [(3, True), (64, False)]
    batches = [(9, 1), (len(cat), 1), (2, 1), (5, 1), (16, 2),
               (768, 64), (769, 64), (5000, 64), (len(cat), 1)]
    assert dispatched == batches
    # a worker count is a plain int: floats, strings and bools are refused
    # before any pool starts, chain(3) with no task to dispatch included
    for bad in (0, -3, 2.0, "2", True):
        match = re.escape(f"worker count must be an integer of at least 1, got {bad!r}")
        with pytest.raises(ValueError, match=match):
            sorting_gf(T222, workers=bad)
        with pytest.raises(ValueError, match=match):
            tangled_report(T222, workers=bad)
        with pytest.raises(ValueError, match=match):
            tangled_report(chain(3), workers=bad)
        with pytest.raises(ValueError, match=match):
            scan_catalog(cat, workers=bad)
        with pytest.raises(ValueError, match=match):
            generate_posets(5, workers=bad)
        # one level builds no pool, so the count is checked before it
        with pytest.raises(ValueError, match=match):
            generate_posets(1, workers=bad)
    assert len(pools) == 2 and dispatched == batches


def test_one_pool_per_process(monkeypatch, fresh_pool):
    # growth, a conjecture scan and an enumeration at two workers share one
    # real pool, started at the first dispatch
    from promotion_sorting import enumeration, scan_catalog
    from promotion_sorting.harness import poset_levels

    real_pool = enumeration.Pool
    started = []

    def counting_pool(processes):
        started.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(enumeration, "Pool", counting_pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    cat = generate_posets(5)
    levels = list(poset_levels(6, workers=2))
    report = scan_catalog(cat, workers=2)
    f = sorting_gf(T222, workers=2)
    assert started == [2]
    assert [len(level) for level in levels] == [1, 2, 5, 16, 63, 318]
    assert report == scan_catalog(cat)
    assert f == sorting_gf(T222)


def test_defective_kernel_fails_instead_of_hanging(monkeypatch):
    # an inverse step whose only preimage is the reversed array makes a
    # 2-cycle, which must trip the walk's depth guard rather than only the
    # forest's n! total, and a step that never moves anything must trip the
    # n - 1 step cap of order
    from promotion_sorting import enumeration, promotion

    def no_pool(processes):
        raise AssertionError("no pool may start")

    monkeypatch.setattr(enumeration, "Pool", no_pool)
    monkeypatch.setattr(enumeration, "_preimages",
                        lambda above, below, q, ends, out: out.append(q[::-1]) or 0)
    with pytest.raises(InternalError, match="more than n - 1 promotions"):
        sorting_gf(chain(3), workers=1)
    monkeypatch.setattr(promotion, "_advance", lambda above, pos: None)
    with pytest.raises(InternalError):
        order(chain(3), (2, 1, 3))


def test_tangled_lambda():
    rep = tangled_report(LAMBDA)
    assert rep.total == 0
    assert rep.by_element == (0, 0, 0)


def test_tangled_two_chain():
    rep = tangled_report(chain(2))
    assert rep.total == 1
    assert rep.by_element == (0, 1)


def test_tangled_matches_top_coefficient():
    # basin-restricted enumeration against the unrestricted full scan
    posets = [
        chain(4),
        Poset(4, [(0, 2), (1, 2), (2, 3)]),
        Poset(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
        T222,
        antichain(4),
    ]
    for p in posets:
        rep = tangled_report(p)
        assert rep.total == sorting_gf(p).coeffs[-1]
        assert rep.total == sum(rep.by_element)


def test_tangled_chain_lemma_and_full_space_oracle():
    # the pruned enumeration against the full basin x (n-1)! space, on every
    # poset with 2 <= n <= 6: label n on a basin, n - 2 plain promotion steps,
    # then label 1 strictly above that basin; and the lemma behind the
    # pruning, that label n - 1 not strictly above the basin sorts early
    for n in range(2, 7):
        for p in generate_posets(n).entries:
            by_element = [0] * n
            for b in basins(p):
                others = [e for e in range(n) if e != b]
                for perm in permutations(others):
                    pos = list(perm) + [b]
                    runner_up = pos[-2]
                    if not (p.above[b] >> runner_up) & 1:
                        assert order(p, labels_of(pos)) < n - 1
                    for _ in range(n - 2):
                        _advance(p.above, pos)
                    if (p.above[b] >> pos[0]) & 1:
                        by_element[runner_up] += 1
            assert tangled_report(p).by_element == tuple(by_element)


@pytest.mark.parametrize("p", [build_w_poset(WParams(1, 1, 1, 1)), THREE_BASINS],
                         ids=["W(1,1,1,1)", "three-basins"])
def test_tangled_split_invariance(monkeypatch, p):
    # every worker count from 2 to 7 dispatches the same task list, one task
    # per root tail (the holders of labels n - 1 and n in a natural labeling)
    # for f and one block (r, b, funnel, alive) per basin b and element r
    # alive for b outside its funnel for tangled counts, each with the masks
    # of _masks, and sums to the serial result; a fake pool
    # runs the tasks in this process, so nothing is spawned.  Three disjoint
    # 2-chains have funnel pairs only, so their tangled counts dispatch nothing
    from promotion_sorting import enumeration

    seen = []

    class FakePool:
        def __init__(self, processes):
            pass

        def terminate(self):
            pass

        def imap(self, worker, tasks, chunksize):
            seen.append((worker.func, list(tasks)))
            return map(worker, tasks)

    monkeypatch.setattr(enumeration, "Pool", FakePool)
    monkeypatch.setattr(enumeration, "_pool", None)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 7)
    serial_f = sorting_gf(p).coeffs
    serial_tangled = tangled_report(p).by_element
    for parts in range(2, 8):
        assert sorting_gf(p, workers=parts).coeffs == serial_f
        assert tangled_report(p, workers=parts).by_element == serial_tangled
    root_tails = sorted({perm[-2:] for perm in permutations(range(p.n))
                         if is_natural(p, labels_of(perm))})
    blocks = _searched_blocks(p)
    assert [sorted(t) for w, t in seen if w is enumeration._gf_task] == [root_tails] * 6
    # an empty task list runs in this process and starts no pool; each
    # block carries its masks
    assert ([t for w, t in seen if w is enumeration._tangled_task]
            == ([blocks] * 6 if blocks else []))
    # both W(1,1,1,1) blocks, (3, 0) and (3, 4), are alive: 3 lies above a
    # funnel element of each basin
    assert len(blocks) == (0 if p is THREE_BASINS else 2)


def test_task_lists_cover_each_space_once(monkeypatch):
    # sorting_gf gives each of the n! labelings its order, and
    # tangled_report visits exactly the labelings with label n on a basin b
    # and label n - 1 alive for b but outside its funnel, each once:
    # a recorder of the promotion step keeps the arrays that enter a block's
    # first level, its first (n-2)! steps: each is the labeling's first
    # n - 1 entries, then padding.  A wrapper of the kernel names the block
    from promotion_sorting import enumeration

    visits = []
    first_level = []  # the block's (r, b) and how many first-level steps are left
    kernel, step = enumeration._tangled_task, enumeration._advance

    def task(p, block):
        first_level[:] = [block[:2], factorial(p.n - 2)]
        return kernel(p, block)

    def record(above, pos):
        (r, b), left = first_level
        if left:
            first_level[1] = left - 1
            assert pos[p.n - 2] == r
            visits.append((*pos[:p.n - 1], b))
        step(above, pos)

    monkeypatch.setattr(enumeration, "_tangled_task", task)
    monkeypatch.setattr(enumeration, "_advance", record)
    for n in range(1, 7):
        for p in generate_posets(n).entries:
            counts = [0] * n
            for labels in permutations(range(1, n + 1)):
                counts[order(p, labels)] += 1
            assert sorting_gf(p).coeffs == tuple(counts)
            if not 2 <= n <= 5:
                continue
            visits.clear()
            tangled_report(p)
            searched = {block[:2] for block in _searched_blocks(p)}
            want = [pos for pos in permutations(range(n)) if pos[-2:] in searched]
            assert sorted(visits) == want


def test_tangled_single_element():
    with pytest.raises(ValueError):
        tangled_report(Poset(1, []))


def test_sequence_shape():
    assert sequence_shape((8, 64, 216, 192, 240)).unimodal is False
    s = sequence_shape((8, 72, 288, 480, 720, 720))
    assert s.log_concave is True
    assert s.unimodal is True
    assert sequence_shape((1, 2, 1)) == sequence_shape((1, 2, 1))
    assert sequence_shape((1, 2, 1)).unimodal and sequence_shape((1, 2, 1)).log_concave
    # log-concavity fails on an interior dip even though unimodality may hold
    assert sequence_shape((1, 1, 4, 1)).log_concave is False
    assert sequence_shape((0, 5, 0, 5)).unimodal is False
    # an empty sequence is vacuously unimodal and log-concave
    assert sequence_shape(()).unimodal and sequence_shape(()).log_concave


def test_budget_refusal():
    big = antichain(10)
    with pytest.raises(BudgetError, match="10 exceeds the budget of 9; pass force=True"):
        sorting_gf(big)
    with pytest.raises(BudgetError):
        tangled_report(big)


def test_budget_hint_only_where_force_applies():
    with pytest.raises(BudgetError, match=r"--force on the command line"):
        _check_budget(10, False)
    with pytest.raises(BudgetError) as exc:
        _check_budget(401, None, 400, "broom elements")
    assert str(exc.value) == "broom elements of 401 exceeds the budget of 400"
    _check_budget(10, True)
    _check_budget(400, None, 400)


def test_budget_refuses_a_huge_int():
    with pytest.raises(BudgetError, match="of <5001-digit int> exceeds the budget of 9"):
        _check_budget(10**5000, False)


def _library_sites(match) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of each node of the library's
    syntax trees that ``match`` accepts, module by module in file order."""
    from pathlib import Path

    import promotion_sorting

    found = []

    class Finder(ast.NodeVisitor):
        def __init__(self, module):
            self.where = [module]

        def visit_FunctionDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

        def generic_visit(self, node):
            if match(node):
                found.append((self.where[0], self.where[-1]))
            super().generic_visit(node)

    for path in sorted(Path(promotion_sorting.__file__).parent.glob("*.py")):
        Finder(path.name).visit(ast.parse(path.read_text()))
    return found


def _name(node):
    """The name a ``Name`` or ``Attribute`` node refers to, else ``None``."""
    return getattr(node, "id", getattr(node, "attr", None))


def test_budget_error_is_raised_in_one_place():
    # every size refusal must go through _check_budget, so that a new cap
    # cannot fork the rule, its wording or its --force hint again
    def raises_budget_error(node):
        if not isinstance(node, ast.Raise):
            return False
        return _name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "BudgetError"

    assert _library_sites(raises_budget_error) == [("enumeration.py", "_check_budget")]


def test_one_forward_loop_per_question():
    # a promotion step is taken only by the loops that answer a question:
    # the order (which is_tangled reads), one step, the path, and the
    # level-wise tangled search
    def calls_advance(node):
        return isinstance(node, ast.Call) and _name(node.func) == "_advance"

    assert set(_library_sites(calls_advance)) == {
        ("enumeration.py", "_tangled_task"), ("promotion.py", "_order_pos"),
        ("promotion.py", "promote"), ("promotion.py", "promotion_path")}


def test_one_dispatch_site_per_caller():
    # every pool dispatch is one _run_chunks call plus its caller's own
    # reduction of the results, with no wrapper in between
    def calls_run_chunks(node):
        return isinstance(node, ast.Call) and _name(node.func) == "_run_chunks"

    assert sorted(_library_sites(calls_run_chunks)) == [
        ("enumeration.py", "_tangled_counts"), ("enumeration.py", "sorting_gf"),
        ("harness.py", "_grow_levels"), ("harness.py", "scan_catalog")]


def test_the_core_stays_dependency_free():
    import ast
    import sys
    from pathlib import Path

    import promotion_sorting

    imported = set()
    for path in sorted(Path(promotion_sorting.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module))
    assert imported
    assert [(name, module) for name, module in sorted(imported)
            if module.split(".")[0] not in sys.stdlib_module_names] == []


def test_funnel_credit_matches_enumerating_every_pair_at_seven():
    # second route at n = 7: the kernel run over every (r, b) pair, funnel
    # pairs included, against the report that credits funnel blocks
    for p in generate_posets(7).entries:
        by_element = [0] * p.n
        for b in basins(p):
            masks = _masks(p, b)
            for r in range(p.n):
                if (p.above[b] >> r) & 1:
                    by_element[r] += _tangled_task(p, (r, b, *masks))
        assert tangled_report(p).by_element == tuple(by_element)


def _assert_kernels_agree_on_every_pair(posets) -> None:
    """The level-wise kernel against the per-labeling one on every (r, b)
    pair, funnel pairs included."""
    for p in posets:
        for b in basins(p):
            masks = _masks(p, b)
            for r in _bits(p.above[b]):
                assert (_tangled_task(p, (r, b, *masks))
                        == _per_labeling_tangled_task(p, r, b)), (p, r, b)


def test_level_wise_kernel_matches_per_labeling_kernel():
    # every poset with 2 <= n <= 7, and three disjoint 2-chains
    _assert_kernels_agree_on_every_pair(
        [p for n in range(2, 8) for p in generate_posets(n).entries] + [THREE_BASINS])


@pytest.mark.slow
def test_level_wise_kernel_matches_per_labeling_kernel_on_w_posets_and_at_eight():
    # the benchmark's W posets (n = 9 and 10) and a seeded sample of 100
    # connected n = 8 posets
    sample = random.Random(8).sample(generate_posets(8, connected=True).entries, 100)
    _assert_kernels_agree_on_every_pair([build_w_poset(WParams(2, 2, 1, 1)), W2221, *sample])


def test_tangled_block_memory_is_bounded():
    # a W(2,2,2,1) search block holds 40,320 labelings; after one step its
    # table holds 15,120 distinct low parts, and the traced peak stays
    # below 3 MiB (1.47 MiB; a [count, array] list per state takes 5.3 MiB)
    funnels = funnel_and_basins(W2221)
    blocks = [(r, b, *_masks(W2221, b)) for b in basins(W2221) for r in _bits(W2221.above[b])
              if r not in funnels[b]]
    assert len(blocks) == 2
    for block in blocks:
        tracemalloc.start()
        try:
            count = _tangled_task(W2221, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < count < factorial(W2221.n - 2)
        assert peak < 3 * 2**20


@pytest.mark.parametrize("p", [build_w_poset(WParams(1, 1, 1, 1)), THREE_BASINS],
                         ids=["W(1,1,1,1)", "three-basins"])
def test_no_funnel_pair_is_dispatched(monkeypatch, p):
    # a recorder stands in for the tangled kernel: no dispatched block
    # (r, b, funnel, alive) has r in b's funnel, every funnel element gets
    # exactly (n-2)!, and one block is dispatched per r alive for b
    from promotion_sorting import enumeration

    dispatched = []

    def record(p, block):
        dispatched.append(block)
        return _tangled_task(p, block)

    monkeypatch.setattr(enumeration, "_tangled_task", record)
    funnels = funnel_and_basins(p)
    report = tangled_report(p)
    assert all(r not in funnels[b] for r, b, *_ in dispatched)
    in_funnel = set().union(*funnels.values())
    assert in_funnel
    assert all(report.by_element[r] == factorial(p.n - 2) for r in in_funnel)
    assert dispatched == _searched_blocks(p)


def test_labels_one_and_two_sit_on_a_lower_set_after_n_minus_2_steps():
    # the frozen pair behind the funnel rules: after n - 2 promotions labels
    # 3..n sit on an upper ideal, so the holders of labels 1 and 2 form a
    # lower set; every labeling of every poset with 2 <= n <= 6
    checked = 0
    for n in range(2, 7):
        for p in generate_posets(n).entries:
            for perm in permutations(range(n)):
                pos = list(perm)
                for _ in range(n - 2):
                    _advance(p.above, pos)
                pair = 1 << pos[0] | 1 << pos[1]
                assert not (p.below[pos[0]] | p.below[pos[1]]) & ~pair, (p, perm)
                checked += 1
    assert checked == 236_938


def _record_blocks(monkeypatch) -> list:
    """Patch the tangled kernel and its promotion step to append, for each
    dispatched block, ``[(r, b), count, _advance calls]`` to the returned list."""
    from promotion_sorting import enumeration

    blocks = []
    kernel, step = enumeration._tangled_task, enumeration._advance

    def task(p, block):
        blocks.append([block[:2], 0, 0])
        blocks[-1][1] = kernel(p, block)
        return blocks[-1][1]

    def record(above, pos):
        blocks[-1][2] += 1
        step(above, pos)

    monkeypatch.setattr(enumeration, "_tangled_task", task)
    monkeypatch.setattr(enumeration, "_advance", record)
    return blocks


def test_searched_blocks_and_steps_are_pinned(monkeypatch):
    # the funnel rules dispatch 1,870 of the 3,189 blocks with r strictly
    # above b over the connected posets with 2 <= n <= 7, and take 280,454
    # promotion steps (562,453 without them); W(2,2,2,1) keeps both of its
    # blocks, and accepting states early cuts it to 103,920 steps (122,290)
    blocks = _record_blocks(monkeypatch)
    for n in range(2, 8):
        for p in generate_posets(n, connected=True).entries:
            tangled_report(p)
    assert (len(blocks), sum(steps for _, _, steps in blocks)) == (1870, 280_454)
    blocks.clear()
    assert tangled_report(W2221, force=True).total == 7 * factorial(8) + 34_624
    assert (len(blocks), sum(steps for _, _, steps in blocks)) == (2, 103_920)


def test_every_searched_block_holds_a_tangled_labeling(monkeypatch):
    # observed, not proved: on every poset with 2 <= n <= 7 each of the
    # 2,071 dispatched blocks has a nonzero count, so the rules leave no
    # empty block to search
    blocks = _record_blocks(monkeypatch)
    for n in range(2, 8):
        for p in generate_posets(n).entries:
            tangled_report(p)
    assert len(blocks) == 2071
    assert [pair for pair, count, _ in blocks if not count] == []


def test_tangled_counts_return_the_credited_funnel_elements():
    # check_conjectures reads the funnel elements from here, not from a
    # second funnel_and_basins call
    from promotion_sorting.enumeration import _tangled_counts

    for n in range(2, 7):
        for p in generate_posets(n).entries:
            in_funnel = frozenset().union(*funnel_and_basins(p).values())
            assert _tangled_counts(p, 1, False) == (tangled_report(p), in_funnel)


def test_serial_dispatch_reads_no_cpu_count(monkeypatch):
    # one worker runs in this process whatever the machine, so a serial
    # sweep never asks for the CPU count: neither the scan's own dispatch
    # nor the tangled_report inside each scan task
    from promotion_sorting import enumeration, scan_catalog

    calls = []
    cpu_count = enumeration.os.cpu_count
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: calls.append(1) or cpu_count())
    report = scan_catalog(generate_posets(5, connected=True))
    assert (report.scanned, report.passed, calls) == (44, True, [])


# the minimal elements 0, the basin with the funnel {2}, and 1, with an
# empty funnel, both below 3, and a 256-chain above 3: 260 elements.  In
# OVER_256 the cover (2, 3) puts 3 and the chain above 2, so the blocks
# (r, 0) for r >= 3 are searched; in NO_SEARCH_260 nothing above 3 is at
# or above a funnel element, so no block is searched
OVER_256 = Poset(260, [(0, 2), (1, 3), (2, 3), *[(i, i + 1) for i in range(3, 259)]])
NO_SEARCH_260 = Poset(260, [(0, 2), (0, 3), (1, 3), *[(i, i + 1) for i in range(3, 259)]])


def test_tangled_search_past_256_elements_is_refused(monkeypatch):
    # a search keys its states by bytes, so past 256 elements it is refused,
    # even with force, before any block starts; a poset with no search
    # block is still counted, exactly
    from promotion_sorting import enumeration

    def no_search(*args):
        raise AssertionError("no search may start")

    monkeypatch.setattr(enumeration, "_tangled_task", no_search)
    with pytest.raises(BudgetError, match=re.escape(
            "tangled search poset elements of 260 exceeds the budget of 256")):
        tangled_report(OVER_256, force=True)
    # the bound is 256 itself, the last index a byte holds being 255; with
    # the searches stubbed out, only the funnel element's credit is left
    monkeypatch.setattr(enumeration, "_tangled_task", lambda p, block: 0)
    assert tangled_report(Poset(256, OVER_256.covers[:-4]), force=True).total == factorial(254)
    monkeypatch.undo()
    assert tangled_report(antichain(300), force=True).by_element == (0,) * 300
    assert tangled_report(NO_SEARCH_260, force=True).by_element == (
        0, 0, factorial(258), *[0] * 257)
