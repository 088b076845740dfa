"""Selector regression tests: pinned golden digests and selection properties.

The golden digests fold 30 rounds of select plus feedback on a seeded
2000-client store: every round's picks, every breakdown's final utility, the
utility history and the final checkpoint text. They pin the picks and the
checkpoint bytes exactly, so any change to the selector's arithmetic or to
its random draws shows up here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsel.experiments import canonical_selector_config
from fedsel.metastore import ClientRecord, MetaStore, RoundFeedback, StoreView
from fedsel.training import (TrainingSelector, staleness_bonus, system_penalty,
                             weighted_sample_without_replacement)

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
        picks, breakdowns = selector.select_participants(
            store.view(), GOLDEN_K, r, candidates=candidates)
        digest.update(f"{r}:{','.join(picks)}\n".encode())
        digest.update("".join(f"{b.client_id}={b.final_utility!r};"
                              for b in breakdowns).encode())
        values = draw.uniform(0.0, 50.0, len(picks))
        store.update_with_feedback(
            RoundFeedback(cid, float(v), float(durations[int(cid[1:])]), r)
            for cid, v in zip(picks, values))
    digest.update(repr(store.view().utility_history).encode())
    digest.update(store.snapshot().to_json().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("overrides, expected", [
    ({},
     "48da930f47b80578ba01ef5db2761da7138cb20ad7e9194a3d8c6671ca074047"),
    ({"fairness_weight": 0.5},
     "f6b0ce2a0e171fc00bda810950dfc355aa8f0a3447120f7d54739786a44fb66d"),
    ({"noise_epsilon": 0.2},
     "83cee42fe97b100f64687d7277c78bd654cfd4f095551f8fef9d83179b1a7d8a"),
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
    blacklisted = {cid for cid, rec in view.records.items() if rec.blacklisted}
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


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
                        min_size=1, max_size=80),
       k=st.integers(1, 90), seed=st.integers(0, 2**32 - 1))
def test_sampler_makes_the_draws_of_rng_choice(weights, k, seed):
    ids = list(range(len(weights)))
    assert (weighted_sample_without_replacement(
                np.random.default_rng(seed), ids, weights, k)
            == reference_sample(np.random.default_rng(seed), ids, weights, k))


@pytest.mark.parametrize("fairness", [0.0, 0.5])
def test_breakdowns_equal_the_scalar_formulas_exactly(fairness):
    rng = np.random.default_rng(3)
    round_index, t_pref, alpha = 17, 20.0, 1.5
    records = [ClientRecord(client_id=f"c{i:03d}", stat_utility=float(u),
                            last_round=int(lr), duration=float(d),
                            times_selected=int(ts), explored=True)
               for i, (u, lr, d, ts) in enumerate(zip(
                   rng.uniform(0, 40, 300), rng.integers(1, round_index + 1, 300),
                   t_pref * rng.lognormal(0, 0.6, 300), rng.integers(1, 9, 300)))]
    view = StoreView.from_records(records, round_index, t_pref)
    cfg = canonical_selector_config(fairness_weight=fairness,
                                    straggler_penalty=alpha)
    downs = TrainingSelector(cfg).compute_breakdowns(view, round_index)
    assert [b.client_id for b in downs] == [r.client_id for r in records]
    bases = []
    for rec, b in zip(records, downs):
        stale = staleness_bonus(round_index, rec.last_round)
        base = system_penalty(rec.stat_utility + stale, t_pref, rec.duration,
                              alpha)
        assert b.staleness_bonus == stale
        assert b.system_factor == base / (rec.stat_utility + stale)
        bases.append(base)
    max_sel = max(r.times_selected for r in records)
    raw = [float(max_sel - r.times_selected) for r in records]
    scale = max(bases) / max(raw)
    for b, base, r in zip(downs, bases, raw):
        fair = r * scale if fairness > 0 else 0.0
        assert b.final_utility == (1.0 - fairness) * base + fairness * fair
