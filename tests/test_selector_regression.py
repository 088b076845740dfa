"""Selector regression tests: pinned golden digests and selection properties.

The golden digests fold 30 rounds of select plus feedback on a seeded
2000-client store: every round's picks, every breakdown's final utility, the
utility history and the final checkpoint as v1 text. They pin the picks and
the final store state exactly, so any change to the selector's arithmetic or
to its random draws shows up here.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsel.errors import EmptySelectionError
from fedsel.experiments import canonical_selector_config
from fedsel.metastore import ClientTable, MetaStore, RoundFeedback, StoreView
from fedsel.training import (TrainingSelector, staleness_bonus, system_penalty,
                             weighted_sample_without_replacement)
from checkpoint_oracle import render_v1

GOLDEN_CLIENTS = 2000
GOLDEN_ROUNDS = 30
GOLDEN_K = 50


def golden_digest(seed: int = 7, **overrides) -> str:
    cfg = canonical_selector_config(**overrides)
    rng = np.random.default_rng([seed, 1])
    ids = [f"c{i:04d}" for i in range(GOLDEN_CLIENTS)]
    latency = rng.lognormal(0.0, 0.6, GOLDEN_CLIENTS)
    # Durations straddle the preferred duration, so the straggler penalty
    # applies to a good share of the explored clients; a low blacklist
    # threshold makes clients drop out within the 30 rounds.
    durations = cfg.pacer_step * rng.lognormal(0.0, 0.5, GOLDEN_CLIENTS)
    store = MetaStore(preferred_duration=cfg.pacer_step,
                      clip_percentile=cfg.clip_percentile,
                      blacklist_threshold=4)
    for cid, lat in zip(ids, latency):
        store.register_client(cid, speed_hint=float(1.0 / lat))
    selector = TrainingSelector(cfg, seed=seed)
    digest = hashlib.sha256()
    for _ in range(GOLDEN_ROUNDS):
        r = store.advance_round()
        if r % 10 == 0:
            store.set_preferred_duration(store.preferred_duration
                                         + cfg.pacer_step / 4)
        draw = np.random.default_rng([seed, r, 2])
        mask = draw.random(GOLDEN_CLIENTS) < 0.9
        candidates = [ids[i] for i in np.flatnonzero(mask)]
        view = store.view()
        picks, breakdowns = selector.select_participants(
            view, GOLDEN_K, r, candidates=candidates)
        digest.update(f"{r}:{','.join(picks)}\n".encode())
        digest.update("".join(
            f"{view.table.ids[row]}={final!r};" for row, final in zip(
                breakdowns.rows.tolist(), breakdowns.final.tolist())).encode())
        values = draw.uniform(0.0, 50.0, len(picks))
        store.update_with_feedback(
            RoundFeedback(cid, float(v), float(durations[int(cid[1:])]), r)
            for cid, v in zip(picks, values))
    digest.update(repr(store.view().utility_history).encode())
    digest.update(render_v1(store.snapshot()).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("overrides, expected", [
    ({},
     "617505ac5ec9865db86e3088b6c1999a77504d7f1b9938fd86f5cfcd90430d6b"),
    ({"fairness_weight": 0.5},
     "f681e6b80ceac2f6caa03347465f9f1d9b71065db9ba6966a4a526864f3c51b5"),
    ({"noise_epsilon": 0.2},
     "8ea8b1527f978e5af0393b361f5ed616adfa609197188edcf888e1f05e728c20"),
], ids=["canonical", "fairness_0.5", "noise_0.2"])
def test_golden_select_feedback_digest(overrides, expected):
    assert golden_digest(**overrides) == expected


# -- selection properties ---------------------------------------------------------


def populated_store(n: int, explored: int, rounds: int, threshold: int,
                    hinted: bool, seed: int) -> MetaStore:
    rng = np.random.default_rng(seed)
    store = MetaStore(preferred_duration=10.0, blacklist_threshold=threshold)
    for i in range(n):
        hint = float(rng.uniform(0.1, 5.0)) if hinted else None
        store.register_client(f"c{i:03d}", speed_hint=hint)
    for _ in range(rounds):
        r = store.advance_round()
        who = rng.choice(n, size=min(explored, n), replace=False)
        store.update_with_feedback(
            RoundFeedback(f"c{i:03d}", float(rng.uniform(0.0, 20.0)),
                          float(rng.uniform(1.0, 30.0)), r)
            for i in sorted(who))
    return store


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), explored=st.integers(0, 60),
       rounds=st.integers(0, 6), threshold=st.integers(1, 4),
       hinted=st.booleans(), k=st.integers(1, 70),
       seed=st.integers(0, 2**16), fairness=st.sampled_from([0.0, 0.5]),
       noise=st.sampled_from([0.0, 0.3]), data=st.data())
def test_selection_properties(n, explored, rounds, threshold, hinted, k, seed,
                              fairness, noise, data):
    store = populated_store(n, explored, rounds, threshold, hinted, seed)
    ids = [f"c{i:03d}" for i in range(n)]
    use_candidates = data.draw(st.booleans())
    # Repeated candidate ids are allowed and must count once.
    candidates = (data.draw(st.lists(st.sampled_from(ids)))
                  if use_candidates else None)
    view = store.view()
    blacklisted = {cid for cid, bad in zip(view.table.ids, view.table.blacklisted)
                   if bad}
    pool = set(ids if candidates is None else candidates) - blacklisted
    cfg = canonical_selector_config(fairness_weight=fairness,
                                    noise_epsilon=noise)
    r = store.round_index + 1
    if not pool:
        return
    picks, _ = TrainingSelector(cfg, seed=seed).select_participants(
        view, k, r, candidates=candidates)
    assert len(picks) == len(set(picks)) == min(k, len(pool))
    assert set(picks) <= pool
    again, _ = TrainingSelector(cfg, seed=seed).select_participants(
        store.view(), k, r, candidates=candidates)
    assert again == picks


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), explored=st.integers(0, 40),
       rounds=st.integers(0, 6), threshold=st.integers(1, 3),
       hinted=st.booleans(), k=st.integers(1, 50),
       seed=st.integers(0, 2**16), fairness=st.sampled_from([0.0, 0.5]),
       noise=st.sampled_from([0.0, 0.3]), data=st.data())
def test_candidate_rows_and_masks_select_as_their_ids(n, explored, rounds,
                                                      threshold, hinted, k,
                                                      seed, fairness, noise,
                                                      data):
    store = populated_store(n, explored, rounds, threshold, hinted, seed)
    view = store.view()
    # Rows may repeat and may be blacklisted; the id list adds unknown ids.
    rows = data.draw(st.lists(st.integers(0, n - 1)))
    ids = data.draw(st.permutations(
        [view.table.ids[row] for row in rows]
        + data.draw(st.lists(st.sampled_from(["zz", "c999", "", "c00"])))))
    cfg = canonical_selector_config(fairness_weight=fairness,
                                    noise_epsilon=noise)
    r = store.round_index + 1
    outcomes = []
    for candidates in (ids, np.array(rows, dtype=np.intp)):
        try:
            picks, downs = TrainingSelector(cfg, seed=seed).select_participants(
                view, k, r, candidates=candidates)
        except EmptySelectionError:
            outcomes.append(None)
        else:
            columns = [col.tolist() for col in vars(downs).values()]
            outcomes.append((picks, columns))
    assert outcomes[1] == outcomes[0]


# -- array forms against their scalar references -------------------------------------


def reference_sample(rng, ids, weights, k):
    """Sequential draws through rng.choice, one call per pick."""
    n = len(ids)
    w = np.asarray(weights, dtype=float)
    avail = np.ones(n, dtype=bool)
    picks = []
    for _ in range(min(k, n)):
        live = np.where(avail, w, 0.0)
        total = live.sum()
        if total > 0:
            j = int(rng.choice(n, p=live / total))
        else:
            candidates = np.flatnonzero(avail)
            j = int(candidates[rng.integers(len(candidates))])
        picks.append(ids[j])
        avail[j] = False
    return picks


def successive_sampling_probabilities(weights, k):
    """Exact probability of every ordered pick sequence of ``min(k, n)`` picks.

    Each pick takes a remaining client with probability proportional to its
    weight, or uniformly when the remaining weight is zero. Sequences of
    probability 0 are left out.
    """
    probs = {}
    for seq in itertools.permutations(range(len(weights)), min(k, len(weights))):
        p, left = 1.0, set(range(len(weights)))
        for j in seq:
            total = sum(weights[i] for i in left)
            p *= weights[j] / total if total > 0 else 1.0 / len(left)
            left.remove(j)
        if p > 0:
            probs[seq] = p
    return probs


SAMPLER_DRAWS = 40_000


@pytest.mark.parametrize("sampler", [weighted_sample_without_replacement,
                                     reference_sample],
                         ids=["one_pass", "reference"])
@pytest.mark.parametrize("weights, k", [
    ([3.0, 1.0, 0.5, 2.0, 0.25, 1.5], 4),
    ([0.0, 2.0, 0.0, 1.0, 3.0, 0.0], 4),  # fewer positive weights than k
    ([1.0, 0.0, 4.0, 0.0, 2.5], 2),
    ([0.0, 0.0, 0.0, 0.0], 3),
], ids=["positive", "short_positive", "some_zero", "all_zero"])
def test_sampler_draws_follow_successive_sampling(sampler, weights, k):
    rng = np.random.default_rng(2006)
    ids = list(range(len(weights)))
    counts = Counter(tuple(sampler(rng, ids, weights, k))
                     for _ in range(SAMPLER_DRAWS))
    probs = successive_sampling_probabilities(weights, k)
    assert set(counts) <= set(probs)
    for seq, p in probs.items():
        sigma = math.sqrt(p * (1.0 - p) / SAMPLER_DRAWS)
        assert abs(counts[seq] / SAMPLER_DRAWS - p) <= 4 * sigma, (seq, p)


@pytest.mark.parametrize("fairness", [0.0, 0.5])
def test_breakdowns_equal_the_scalar_formulas_exactly(fairness):
    rng = np.random.default_rng(3)
    round_index, t_pref, alpha = 17, 20.0, 1.5
    ids = tuple(f"c{i:03d}" for i in range(300))
    utility = rng.uniform(0, 40, 300)
    last_round = rng.integers(1, round_index + 1, 300)
    duration = t_pref * rng.lognormal(0, 0.6, 300)
    times = rng.integers(1, 9, 300)
    table = ClientTable(ids, speed_hint=np.full(300, np.nan),
                        stat_utility=utility, last_round=last_round,
                        duration=duration, times_selected=times,
                        blacklisted=np.zeros(300, bool),
                        explored=np.ones(300, bool))
    view = StoreView(table, round_index, t_pref, (),
                     {cid: row for row, cid in enumerate(ids)})
    cfg = canonical_selector_config(fairness_weight=fairness,
                                    straggler_penalty=alpha)
    downs = TrainingSelector(cfg).compute_breakdowns(view, round_index)
    assert [ids[row] for row in downs.rows.tolist()] == list(ids)
    bases = []
    for u, lr, d, got_stale, got_factor in zip(
            utility.tolist(), last_round.tolist(), duration.tolist(),
            downs.staleness.tolist(), downs.system_factor.tolist()):
        stale = staleness_bonus(round_index, lr)
        base = system_penalty(u + stale, t_pref, d, alpha)
        assert got_stale == stale
        assert got_factor == base / (u + stale)
        bases.append(base)
    max_sel = int(times.max())
    raw = [float(max_sel - t) for t in times.tolist()]
    scale = max(bases) / max(raw)
    for final, base, r in zip(downs.final.tolist(), bases, raw):
        fair = r * scale if fairness > 0 else 0.0
        assert final == (1.0 - fairness) * base + fairness * fair
