"""Unit and property tests for the utility math and selection pipeline."""

from __future__ import annotations

import io
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsel.errors import EmptySelectionError
from fedsel.experiments import canonical_population_spec
from fedsel.metastore import (ClientTable, MetaStore, RoundFeedback,
                              StoreView)
from fedsel.simulation import TrainingSession
from fedsel.training import (SelectorConfig, TrainingSelector, clip_cap,
                             exploration_fraction, gradient_norm_utility,
                             aggregate_statistical_utility, pacer_tick,
                             perturb_utilities, scheduled_pacer_tick,
                             staleness_bonus, statistical_utility,
                             system_penalty,
                             weighted_sample_without_replacement)
from fedsel.workload import generate_population

REL = 1e-4


def make_view(records: list[dict], round_index: int = 10,
              preferred_duration: float = 10.0) -> StoreView:
    """A view over ``records`` (from :func:`explored` and :func:`fresh`)."""
    records = sorted(records, key=lambda r: r["client_id"])
    ids = tuple(r["client_id"] for r in records)
    defaults = dict(speed_hint=math.nan, stat_utility=0.0, last_round=0,
                    duration=0.0, times_selected=0, blacklisted=False,
                    explored=False)
    table = ClientTable(ids, **{name: [r.get(name, default) for r in records]
                                for name, default in defaults.items()})
    return StoreView(table, round_index, preferred_duration, (),
                     {cid: row for row, cid in enumerate(ids)})


def explored(cid: str, utility: float, duration: float = 5.0,
             last_round: int = 1, selected: int = 1,
             speed: float | None = 1.0, blacklisted: bool = False) -> dict:
    return dict(client_id=cid, speed_hint=math.nan if speed is None else speed,
                stat_utility=utility, last_round=last_round, duration=duration,
                times_selected=selected, blacklisted=blacklisted,
                explored=True)


def fresh(cid: str, speed: float | None = 1.0) -> dict:
    return dict(client_id=cid, speed_hint=math.nan if speed is None else speed)


def ids_of(view: StoreView, downs) -> list[str]:
    """The client ids of a breakdown's rows."""
    return [view.table.ids[row] for row in downs.rows.tolist()]


# -- statistical utility -------------------------------------------------------

def test_statistical_utility_constant_losses():
    assert statistical_utility([2, 2, 2]) == pytest.approx(6.0, rel=REL)


def test_statistical_utility_empty_bin():
    assert statistical_utility([]) == 0.0


def test_statistical_utility_hand_value():
    # 2 * sqrt((9 + 16) / 2), cross-checked with arbitrary precision
    assert statistical_utility([3, 4]) == pytest.approx(7.07106781187, rel=REL)


def test_statistical_utility_rejects_bad_losses():
    with pytest.raises(ValueError):
        statistical_utility([1.0, -2.0])
    with pytest.raises(ValueError):
        statistical_utility([1.0, math.inf])


def test_aggregate_pair_matches_per_sample_form():
    losses = [0.5, 1.25, 3.0, 0.1]
    agg = aggregate_statistical_utility(sum(l * l for l in losses), len(losses))
    assert agg == pytest.approx(statistical_utility(losses), rel=1e-12)
    assert aggregate_statistical_utility(0.0, 0) == 0.0


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50),
       st.floats(min_value=1e-3, max_value=1e3))
def test_statistical_utility_scale_equivariance(losses, scale):
    base = statistical_utility(losses)
    scaled = statistical_utility([scale * l for l in losses])
    assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-9)


# -- gradient-norm utility ------------------------------------------------------

def test_gradient_norm_utility_accumulates():
    assert gradient_norm_utility([1, 1]) == 2.0
    assert gradient_norm_utility([]) == 0.0


def test_gradient_norm_utility_single_sample_batches():
    # with batch size 1 the accumulated value is the sum of per-sample
    # squared gradient norms
    per_sample_sq = [0.7, 0.2, 1.1]
    assert gradient_norm_utility(per_sample_sq) == pytest.approx(sum(per_sample_sq))


# -- system penalty --------------------------------------------------------------

def test_system_penalty_non_straggler_unchanged():
    assert system_penalty(6.0, 10.0, 5.0, 2.0) == 6.0


def test_system_penalty_straggler_hand_value():
    assert system_penalty(6.0, 10.0, 20.0, 2.0) == pytest.approx(1.5, rel=REL)


def test_system_penalty_zero_alpha():
    assert system_penalty(6.0, 10.0, 20.0, 0.0) == pytest.approx(6.0)


def test_system_penalty_rejects_nonpositive_durations():
    with pytest.raises(ValueError):
        system_penalty(1.0, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        system_penalty(1.0, 1.0, -1.0, 2.0)


@given(st.floats(min_value=0.01, max_value=100),
       st.floats(min_value=0.01, max_value=100),
       st.floats(min_value=0, max_value=5))
def test_system_penalty_never_rewards(preferred, duration, alpha):
    out = system_penalty(1.0, preferred, duration, alpha)
    assert out <= 1.0 + 1e-12
    if duration <= preferred:
        assert out == 1.0


# -- staleness bonus --------------------------------------------------------------

def test_staleness_bonus_round_one():
    assert staleness_bonus(1, 1) == 0.0


def test_staleness_bonus_hand_value():
    assert staleness_bonus(100, 10) == pytest.approx(0.214596602629, rel=REL)


def test_staleness_bonus_monotone_in_last_round():
    assert staleness_bonus(100, 1) > staleness_bonus(100, 50)


def test_staleness_bonus_rejects_never_participated():
    with pytest.raises(ValueError):
        staleness_bonus(10, 0)


# -- pacer -------------------------------------------------------------------------

def test_pacer_raises_when_older_window_larger():
    # W=2, rounds 1..4 history, selecting round 5
    assert pacer_tick([20, 0, 10, 0], 5, 2, 7.0, 3.0) == 10.0


def test_pacer_holds_when_newer_window_larger():
    assert pacer_tick([10, 0, 20, 0], 5, 2, 7.0, 3.0) == 7.0


def test_pacer_inert_during_warmup():
    assert pacer_tick([5, 9], 3, 2, 7.0, 3.0) == 7.0
    assert pacer_tick([5, 9, 1], 4, 2, 7.0, 3.0) == 7.0


def test_scheduled_pacer_only_fires_on_window_boundaries():
    history = [100.0] * 40 + [0.0] * 40
    # round 61: (61-1) % 20 == 0 and decline happened
    assert scheduled_pacer_tick(history[:60], 61, 20, 5.0, 5.0) == 10.0
    # round 62 is off-schedule even though the condition still holds
    assert scheduled_pacer_tick(history[:61], 62, 20, 5.0, 5.0) == 5.0


def test_pacer_increase_count_bounded():
    # worst case: perpetual decline; increases limited to one per window
    window, step = 5, 1.0
    t = 5.0
    history: list[float] = []
    increases = 0
    total_rounds = 200
    for r in range(1, total_rounds + 1):
        new_t = scheduled_pacer_tick(history, r, window, t, step)
        if new_t > t:
            increases += 1
        t = new_t
        history.append(float(total_rounds - r))  # strictly declining utility
    assert increases <= total_rounds / window + 1


# -- clipping ----------------------------------------------------------------------

def test_clip_cap_uniform_grid():
    assert clip_cap(list(range(1, 101)), 95) == 95


def test_clip_cap_all_equal():
    assert clip_cap([7.0] * 5, 95) == 7.0


def test_clip_cap_nearest_rank_small_list():
    assert clip_cap([10, 10, 10, 1000], 95) == 1000
    assert clip_cap([10, 10, 10, 1000], 75) == 10


def test_clip_cap_empty_is_unbounded():
    assert clip_cap([], 95) == math.inf


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60),
       st.floats(min_value=1.0, max_value=100.0))
def test_clip_cap_matches_sort_oracle(values, percentile):
    expected = sorted(values)[max(math.ceil(percentile / 100 * len(values)), 1) - 1]
    assert clip_cap(values, percentile) == expected


# -- exploration schedule ------------------------------------------------------------

def test_exploration_decays_to_floor():
    cfg = SelectorConfig(pacer_step=10.0)
    assert exploration_fraction(cfg, 1) == pytest.approx(0.9)
    assert exploration_fraction(cfg, 2) == pytest.approx(0.9 * 0.98)
    assert exploration_fraction(cfg, 500) == pytest.approx(0.2)


def test_exploration_below_floor_stays_put():
    cfg = SelectorConfig(pacer_step=10.0, exploration_factor=0.1)
    assert exploration_fraction(cfg, 50) == pytest.approx(0.1)


@pytest.mark.parametrize("field, value", [
    ("straggler_penalty", math.nan),
    ("noise_epsilon", math.nan),
    ("exploration_floor", math.nan),
    ("pacer_step", math.inf),
])
def test_non_finite_config_value_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SelectorConfig(**{"pacer_step": 10.0, field: value})


@pytest.mark.parametrize("field", ["pacer_window", "blacklist_threshold"])
@pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "bool"])
def test_fractional_or_bool_count_config_value_rejected(field, value):
    # A fractional window would pass the range check and crash the pacer.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SelectorConfig(**{"pacer_step": 10.0, field: value})


# -- weighted sampling ----------------------------------------------------------------

def test_weighted_sampling_no_duplicates_and_bounded():
    rng = np.random.default_rng(0)
    ids = [f"c{i}" for i in range(10)]
    picks = weighted_sample_without_replacement(rng, ids, list(range(1, 11)), 6)
    assert len(picks) == len(set(picks)) == 6
    picks_all = weighted_sample_without_replacement(
        np.random.default_rng(0), ids, list(range(1, 11)), 99)
    assert sorted(picks_all) == sorted(ids)


def test_weighted_sampling_deterministic_per_seed():
    ids = [f"c{i}" for i in range(20)]
    w = list(np.linspace(1, 5, 20))
    a = weighted_sample_without_replacement(np.random.default_rng(42), ids, w, 8)
    b = weighted_sample_without_replacement(np.random.default_rng(42), ids, w, 8)
    assert a == b


def test_weighted_sampling_zero_weights_fall_back_to_uniform():
    rng = np.random.default_rng(1)
    picks = weighted_sample_without_replacement(rng, ["a", "b", "c"], [0, 0, 0], 2)
    assert len(picks) == 2


# -- selection pipeline ----------------------------------------------------------------

def selector(**overrides) -> TrainingSelector:
    cfg = dict(pacer_step=10.0)
    cfg.update(overrides)
    seed = cfg.pop("seed", 0)
    return TrainingSelector(SelectorConfig(**cfg), seed=seed)


def test_split_exact_exploit_explore_counts():
    # K=10, eps=0.2 at this round: 8 exploited + 2 explored
    records = [explored(f"e{i}", utility=5.0 + i) for i in range(20)]
    records += [fresh(f"u{i}") for i in range(5)]
    view = make_view(records)
    sel = selector(exploration_factor=0.2, exploration_decay=1.0,
                   exploration_floor=0.0)
    picked, _ = sel.select_participants(view, 10, round_index=3)
    assert len(picked) == 10
    assert sum(1 for c in picked if c.startswith("e")) == 8
    assert sum(1 for c in picked if c.startswith("u")) == 2


def test_full_exploration_when_factor_is_one():
    records = [explored(f"e{i}", utility=50.0) for i in range(10)]
    records += [fresh(f"u{i}") for i in range(12)]
    view = make_view(records)
    sel = selector(exploration_factor=1.0, exploration_floor=1.0)
    picked, _ = sel.select_participants(view, 10, round_index=1)
    assert len(picked) == 10
    assert all(c.startswith("u") for c in picked)


def test_backfill_from_exploited_when_unexplored_empty():
    records = [explored(f"e{i}", utility=1.0 + i) for i in range(15)]
    view = make_view(records)
    sel = selector(exploration_factor=0.2, exploration_decay=1.0,
                   exploration_floor=0.0)
    picked, _ = sel.select_participants(view, 10, round_index=2)
    assert len(picked) == 10
    assert all(c.startswith("e") for c in picked)


def test_backfill_from_unexplored_when_exploited_short():
    records = [explored("e0", utility=4.0)]
    records += [fresh(f"u{i}") for i in range(20)]
    view = make_view(records)
    sel = selector(exploration_factor=0.2, exploration_decay=1.0,
                   exploration_floor=0.0)
    picked, _ = sel.select_participants(view, 10, round_index=2)
    assert len(picked) == 10


def test_selection_returns_min_k_feasible():
    records = [explored("e0", utility=4.0), fresh("u0")]
    view = make_view(records)
    picked, _ = selector().select_participants(view, 10, round_index=2)
    assert sorted(picked) == ["e0", "u0"]


def test_blacklisted_clients_never_selected():
    records = [explored(f"e{i}", utility=100.0, blacklisted=(i % 2 == 0))
               for i in range(20)]
    view = make_view(records)
    sel = selector(exploration_factor=0.0)
    for round_index in range(1, 6):
        picked, _ = sel.select_participants(view, 8, round_index=round_index)
        assert all(int(c[1:]) % 2 == 1 for c in picked)


def test_empty_pool_raises():
    view = make_view([explored("e0", utility=5.0, blacklisted=True)])
    with pytest.raises(EmptySelectionError):
        selector().select_participants(view, 5, round_index=1)


def test_selection_deterministic_given_seed_and_round():
    records = [explored(f"e{i}", utility=float(i + 1), duration=float(i + 1))
               for i in range(30)]
    records += [fresh(f"u{i}", speed=float(i + 1)) for i in range(10)]
    view = make_view(records)
    a = selector(seed=7).select_participants(view, 12, round_index=9)[0]
    b = selector(seed=7).select_participants(view, 12, round_index=9)[0]
    c = selector(seed=8).select_participants(view, 12, round_index=9)[0]
    assert a == b
    assert a != c  # overwhelmingly likely


def test_selection_no_duplicates_and_never_exceeds_k():
    records = [explored(f"e{i}", utility=float(i + 1)) for i in range(40)]
    records += [fresh(f"u{i}") for i in range(10)]
    view = make_view(records)
    for k in (1, 5, 17, 50, 80):
        picked, _ = selector(seed=3).select_participants(view, k, round_index=4)
        assert len(picked) == len(set(picked)) == min(k, 50)


def test_candidates_filter_restricts_pool():
    records = [explored(f"e{i}", utility=10.0) for i in range(10)]
    view = make_view(records)
    allowed = ["e1", "e3", "e5"]
    picked, _ = selector().select_participants(view, 10, round_index=2,
                                               candidates=allowed)
    assert sorted(picked) == allowed


def test_breakdown_identity_and_components():
    rec_fast = explored("fast", utility=6.0, duration=5.0, last_round=10)
    rec_slow = explored("slow", utility=6.0, duration=20.0, last_round=10)
    view = make_view([rec_fast, rec_slow], preferred_duration=10.0)
    sel = selector(straggler_penalty=2.0)
    downs = sel.compute_breakdowns(view, 10)
    assert ids_of(view, downs) == ["fast", "slow"]
    assert downs.system_factor[0] == pytest.approx(1.0)
    assert downs.system_factor[1] == pytest.approx(0.25, rel=REL)
    expect = ((1 - 0.0) * (downs.stat + downs.staleness)
              * downs.system_factor) + 0.0 * downs.fairness
    assert downs.final == pytest.approx(expect, rel=1e-12)
    assert np.all(downs.final >= 0)
    assert np.all(np.isfinite(downs.final))


# Interleaved feedback, pacer steps and registrations on two stores that
# share one selector, so its straggler memo sees changed durations, moved T,
# shifted rows and the other store's columns.
_MEMO_OPS = st.lists(st.one_of(
    st.tuples(st.just("feedback"), st.integers(0, 1), st.lists(st.tuples(
        st.integers(0, 40), st.floats(0.0, 100.0), st.floats(0.5, 40.0)),
        min_size=1, max_size=6)),
    st.tuples(st.just("pacer"), st.integers(0, 1), st.floats(0.0, 5.0)),
    st.tuples(st.just("register"), st.integers(0, 1),
              st.text("amz", min_size=1, max_size=2)),
), max_size=30)


@settings(max_examples=150, deadline=None)
@given(alpha=st.sampled_from([0.0, 0.5, 2.0, 3.7]), ops=_MEMO_OPS)
def test_memoised_straggler_factors_match_a_fresh_selector(alpha, ops):
    config = SelectorConfig(pacer_step=1.0, straggler_penalty=alpha)
    shared = TrainingSelector(config)
    stores = [MetaStore(preferred_duration=10.0) for _ in range(2)]
    for s in stores:
        for cid in ("b", "d", "f", "h"):
            s.register_client(cid)
    for op, which, arg in ops:
        s = stores[which]
        if op == "feedback":
            r = s.advance_round()
            ids = s.client_ids()
            batch = {ids[i % len(ids)]: (u, d) for i, u, d in arg}
            s.update_with_feedback(RoundFeedback(cid, u, d, r)
                                   for cid, (u, d) in batch.items())
        elif op == "pacer":
            s.set_preferred_duration(s.preferred_duration + arg)
        elif op == "register" and arg not in s.client_ids():
            s.register_client(arg)
        if s.round_index == 0:
            continue
        view, r = s.view(), s.round_index
        got = shared.compute_breakdowns(view, r)
        want = TrainingSelector(config).compute_breakdowns(view, r)
        assert got.system_factor.tobytes() == want.system_factor.tobytes()
        assert got.final.tobytes() == want.final.tobytes()
        t_pref = view.preferred_duration
        for i, row in enumerate(got.rows.tolist()):
            duration = float(view.table.duration[row])
            if duration > t_pref:
                combined = float(got.stat[i] + got.staleness[i])
                assert got.final[i] == system_penalty(combined, t_pref,
                                                      duration, alpha)


def test_shared_selector_under_threads_matches_a_fresh_selector():
    # Threads alternate between views of equal length whose durations
    # differ, so each call finds the memo of another view, or one being
    # replaced.
    config = SelectorConfig(pacer_step=1.0, straggler_penalty=2.0)
    rng = np.random.default_rng(5)
    views = [make_view([explored(f"c{i:03d}", utility=float(u), duration=float(d))
                        for i, (u, d) in enumerate(zip(
                            rng.uniform(0, 50, 300), rng.uniform(1, 30, 300)))])
             for _ in range(4)]
    want = [TrainingSelector(config).compute_breakdowns(v, 10).final.tobytes()
            for v in views]
    shared = TrainingSelector(config)
    wrong: list[object] = []

    def work(first: int) -> None:
        try:
            for i in range(first, first + 150):
                got = shared.compute_breakdowns(views[i % 4], 10).final.tobytes()
                if got != want[i % 4]:
                    wrong.append(i)
        except Exception as exc:  # reported by the assert below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_breakdown_identity_with_fairness():
    records = [explored(f"e{i}", utility=5.0 * (i + 1), selected=i)
               for i in range(6)]
    view = make_view(records)
    sel = selector(fairness_weight=0.4)
    downs = sel.compute_breakdowns(view, 12)
    assert downs.rows.size == 6
    expect = (0.6 * (downs.stat + downs.staleness) * downs.system_factor
              + 0.4 * downs.fairness)
    assert downs.final == pytest.approx(expect, rel=1e-12)
    assert np.all(downs.fairness >= 0)


def test_fairness_one_prefers_least_selected():
    # equal utilities, very unequal selection counts
    records = [explored(f"e{i}", utility=10.0, selected=1 + 3 * i)
               for i in range(12)]
    view = make_view(records)
    sel = selector(fairness_weight=1.0, exploration_factor=0.0, seed=5)
    freq = {f"e{i}": 0 for i in range(12)}
    for r in range(1, 60):
        picked, _ = sel.select_participants(view, 3, round_index=r)
        for c in picked:
            freq[c] += 1
    least = sum(freq[f"e{i}"] for i in range(4))
    most = sum(freq[f"e{i}"] for i in range(8, 12))
    assert least > most


def test_argmax_invariance_under_common_scaling():
    base = [explored(f"e{i}", utility=2.0 + 3 * i, duration=1.0, last_round=10)
            for i in range(15)]
    scaled = [explored(f"e{i}", utility=(2.0 + 3 * i) * 37.5, duration=1.0,
                       last_round=10) for i in range(15)]
    # no staleness asymmetry: same last_round; R chosen so bonus is common
    sel = selector(exploration_factor=0.0, seed=11)
    view_a = make_view(base, round_index=10)
    view_b = make_view(scaled, round_index=10)
    picked_a, downs_a = sel.select_participants(view_a, 6, 10)
    picked_b, downs_b = sel.select_participants(view_b, 6, 10)
    # staleness bonus is additive and unscaled, so exclude it by comparing the
    # admitted pools through stat-dominated utilities where bonus is negligible
    assert set(ids_of(view_a, downs_a)) == set(ids_of(view_b, downs_b))


def test_argmax_invariance_exact_when_bonus_zero():
    # R=1 makes the staleness bonus exactly 0, so scaling preserves ratios
    base = [explored(f"e{i}", utility=1.0 + i, duration=1.0, last_round=1)
            for i in range(12)]
    scaled = [explored(f"e{i}", utility=(1.0 + i) * 1000.0, duration=1.0,
                       last_round=1) for i in range(12)]
    sel_a = selector(exploration_factor=0.0, seed=21)
    sel_b = selector(exploration_factor=0.0, seed=21)
    picked_a, _ = sel_a.select_participants(make_view(base, round_index=1), 5, 1)
    picked_b, _ = sel_b.select_participants(make_view(scaled, round_index=1), 5, 1)
    assert picked_a == picked_b


def test_system_blind_mode_ranks_by_stat_plus_staleness():
    # alpha=0: durations must not affect the ranking
    records = [explored(f"e{i}", utility=10.0 - i, duration=1000.0 * (i + 1),
                        last_round=5) for i in range(8)]
    view = make_view(records, round_index=5, preferred_duration=1.0)
    sel = selector(straggler_penalty=0.0, exploration_factor=0.0)
    downs = sel.compute_breakdowns(view, 5)
    finals = dict(zip(ids_of(view, downs), downs.final.tolist()))
    expected = {r["client_id"]: r["stat_utility"] + staleness_bonus(5, 5)
                for r in records}
    for cid in finals:
        assert finals[cid] == pytest.approx(expected[cid], rel=1e-12)


def test_stat_monotonicity_of_selection_probability():
    def freq_of_e0(utility: float) -> float:
        records = [explored("e0", utility=utility)]
        records += [explored(f"e{i}", utility=5.0) for i in range(1, 10)]
        view = make_view(records)
        hits = 0
        trials = 800
        for s in range(trials):
            sel = selector(exploration_factor=0.0, seed=s)
            picked, _ = sel.select_participants(view, 3, round_index=2)
            hits += "e0" in picked
        return hits / trials

    low, high = freq_of_e0(2.0), freq_of_e0(20.0)
    se = math.sqrt(0.25 / 800)
    assert high >= low - 3 * se


def test_staleness_grows_while_unselected():
    rec = explored("e0", utility=5.0, last_round=10)
    sel = selector()
    view = make_view([rec])
    u_now = sel.compute_breakdowns(view, 10).final[0]
    u_later = sel.compute_breakdowns(view, 25).final[0]
    assert u_later > u_now


def test_noise_is_zero_mean_on_average():
    # E[noised utility] = true utility within 3 standard errors over 1e4
    # draws; utilities large enough that the 0-floor never binds
    values = [50.0, 80.0, 120.0]
    eps = 0.1
    sigma = eps * float(np.mean(values))
    n = 10_000
    total = np.zeros(len(values))
    for s in range(n):
        total += perturb_utilities(np.random.default_rng(s), values, eps)
    se = sigma / math.sqrt(n)
    for mean, true in zip(total / n, values):
        assert abs(mean - true) <= 3 * se


def test_noised_sampling_weights_stay_nonnegative_and_select():
    records = [explored(f"e{i}", utility=0.01 * (i + 1)) for i in range(20)]
    view = make_view(records)
    sel = selector(noise_epsilon=5.0, exploration_factor=0.0, seed=2)
    picked, _ = sel.select_participants(view, 5, round_index=3)
    assert len(picked) == 5


def test_metrics_sink_rows():
    # Every client is available, so round 2 breaks down the 5 clients that
    # completed round 1, the only explored ones; round 1 has no rows.
    sink = io.StringIO()
    world = generate_population(canonical_population_spec(
        0, client_count=40, test_samples=200))
    world.availability[:] = 1.0
    session = TrainingSession(world, "guided", SelectorConfig(pacer_step=10.0),
                              k=5, seed=0, metrics_sink=sink)
    first, _ = session.run_rounds(2)
    lines = sink.getvalue().strip().splitlines()
    assert lines[0].startswith("round\tclient_id")
    assert len(lines) == 1 + 5
    rows = [line.split("\t") for line in lines[1:]]
    assert all(len(cells) == 7 and cells[0] == "2" for cells in rows)
    assert [cells[1] for cells in rows] == sorted(first.completers)


def test_repeated_candidates_give_distinct_picks():
    # regression: repeated candidate ids used to be picked repeatedly
    view = make_view([fresh(c) for c in "abcd"])
    picked, _ = selector(seed=0).select_participants(
        view, 4, round_index=1, candidates=["a", "a", "a", "b"])
    assert sorted(picked) == ["a", "b"]


def test_repeated_candidates_give_one_breakdown_each():
    view = make_view([explored(c, utility=3.0) for c in "abc"])
    downs = selector().compute_breakdowns(view, 2, candidates=["c", "a", "c"])
    assert ids_of(view, downs) == ["a", "c"]


# Arrays other than integer rows are rejected: a mask read as ids would
# match no client and leave the round idle.
@pytest.mark.parametrize("candidates", [
    np.array([0, 3]), np.array([-1, 0]), np.array([[0, 1]]),
    np.ones(3, dtype=bool), np.array([0.0, 1.0]), np.array(["a", "b"]),
], ids=["row_past_end", "negative_row", "rows_2d", "bool_mask", "float_rows",
        "id_array"])
def test_candidate_rows_and_masks_must_fit_the_view(candidates):
    view = make_view([fresh(c) for c in "abc"])
    with pytest.raises(ValueError, match="candidate"):
        selector().select_participants(view, 2, round_index=1,
                                       candidates=candidates)
