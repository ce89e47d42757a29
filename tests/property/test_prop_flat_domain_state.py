"""Flat per-domain policy state equals the list code, bit for bit.

The estimators, the domain classifiers and the adaptive TTL calibration
keep their K-length state in ``array`` buffers built by C-level
``map``/``repeat`` passes. Each pass must apply the same float
operations in the same order as the plain-list code it replaces, so
this property runs the list code (kept below as a reference) beside
the real classes on drawn share vectors and per-server ``domain_hits``
counters and compares every float bitwise (``float.hex``), not
approximately. The slice length of :func:`~repro.core.flat.flat_map` is
drawn too, so the drawn vectors cross slice boundaries.
"""

from array import array
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classes import (
    LoadQuantileClassifier,
    PerDomainClassifier,
    SingleClassClassifier,
    TwoClassClassifier,
)
from repro.core.estimator import (
    MeasuredEstimator,
    OracleEstimator,
    SlidingWindowEstimator,
)
from repro.core import flat
from repro.core.state import SchedulerState
from repro.core.ttl.adaptive import AdaptiveTtlPolicy
from repro.core.ttl.calibration import (
    calibrated_scale,
    capacity_selection_probabilities,
    reference_request_rate,
)
from repro.sim.engine import Environment
from repro.web.cluster import ServerCluster
from repro.web.server import WebServer

# -- the list code (the reference) ------------------------------------------


def ref_relative_class_weights(shares, class_of, class_count):
    peak = max(shares)
    sums = [0.0] * class_count
    counts = [0] * class_count
    for share, cls in zip(shares, class_of):
        sums[cls] += share
        counts[cls] += 1
    weights = []
    for c in range(class_count):
        if counts[c] == 0:
            weights.append(min(shares) / peak)
        else:
            weights.append((sums[c] / counts[c]) / peak)
    return weights


def ref_single(shares):
    return [0] * len(shares), [1.0]


def ref_two_class(shares, threshold=None):
    gamma = threshold if threshold is not None else 1.0 / len(shares)
    class_of = [0 if share > gamma else 1 for share in shares]
    if all(cls == 1 for cls in class_of):
        class_of[max(range(len(shares)), key=lambda j: shares[j])] = 0
    return class_of, ref_relative_class_weights(shares, class_of, 2)


def ref_quantile(shares, tier_count):
    count = len(shares)
    tiers = min(tier_count, count)
    order = sorted(range(count), key=lambda j: shares[j], reverse=True)
    class_of = [0] * count
    target = 1.0 / tiers
    tier, accumulated = 0, 0.0
    remaining = count
    for j in order:
        class_of[j] = tier
        accumulated += shares[j]
        remaining -= 1
        if (
            tier < tiers - 1
            and accumulated >= target * (tier + 1)
            and remaining >= tiers - tier - 1
        ):
            tier += 1
    return class_of, ref_relative_class_weights(shares, class_of, tiers)


def ref_per_domain(shares):
    peak = max(shares)
    return list(range(len(shares))), [share / peak for share in shares]


def ref_prior(prior, domain_count):
    if prior is None:
        return [1.0 / domain_count] * domain_count
    total = float(sum(prior))
    return [float(p) / total for p in prior]


def ref_observed(hit_dicts, domain_count):
    observed = [0] * domain_count
    for domain_hits in hit_dicts:
        for domain_id, hits in domain_hits.items():
            observed[domain_id] += hits
    return observed


def ref_measured_collect(estimate, smoothing, observed):
    total = sum(observed)
    if total == 0:
        return estimate
    alpha = smoothing
    floor = 1e-9
    estimate = [
        max(floor, (1.0 - alpha) * old + alpha * (obs / total))
        for old, obs in zip(estimate, observed)
    ]
    norm = sum(estimate)
    return [share / norm for share in estimate]


def ref_window_shares(totals, prior):
    window_total = sum(totals)
    if window_total == 0:
        return list(prior)
    floor = 1e-9
    raw = [max(floor, count / window_total) for count in totals]
    norm = sum(raw)
    return [value / norm for value in raw]


def ref_calibrated_scale(weights, factors, probabilities, reference_rate):
    mean_server_factor = sum(
        factor * prob for factor, prob in zip(factors, probabilities)
    )
    return sum(weights) / (mean_server_factor * reference_rate)


# -- strategies --------------------------------------------------------------

positive = st.floats(min_value=1e-12, max_value=1.0, allow_nan=False)

#: Share vectors: arbitrary positives, or all equal (the degenerate
#: two-class split), from one domain up.
share_vectors = st.one_of(
    st.lists(positive, min_size=1, max_size=40),
    st.tuples(positive, st.integers(min_value=1, max_value=40)).map(
        lambda pair: [pair[0]] * pair[1]
    ),
)

DOMAINS = 12
SERVERS = 3

#: One collection: each server's ``domain_hits`` counters.
collections = st.lists(
    st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=DOMAINS - 1),
            st.integers(min_value=1, max_value=10_000),
            max_size=DOMAINS,
        ),
        min_size=SERVERS,
        max_size=SERVERS,
    ),
    min_size=1,
    max_size=8,
)

priors = st.one_of(
    st.none(),
    st.lists(
        st.floats(min_value=1e-6, max_value=50.0, allow_nan=False),
        min_size=DOMAINS,
        max_size=DOMAINS,
    ),
)


#: ``flat_map`` slice lengths: tiny ones put boundaries inside every
#: drawn vector; the real one keeps each vector in one slice.
chunk_sizes = st.sampled_from([1, 2, 5, flat.CHUNK])


@contextmanager
def chunk_size(size):
    saved = flat.CHUNK
    flat.CHUNK = size
    try:
        yield
    finally:
        flat.CHUNK = saved


def hexes(values):
    return [float.hex(float(value)) for value in values]


def same(actual, expected):
    """Classifications agree in every integer and every float bit."""
    class_of, weights = actual
    ref_class_of, ref_weights = expected
    assert list(class_of) == ref_class_of
    assert hexes(weights) == hexes(ref_weights)


def collect(estimator, servers, hit_dicts):
    for server, domain_hits in zip(servers, hit_dicts):
        server.domain_hits = dict(domain_hits)
    estimator._collect_once()


# -- properties --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    share_vectors,
    st.one_of(st.none(), positive),
    st.integers(min_value=1, max_value=45),
    chunk_sizes,
)
def test_classifiers_match_list_code(shares, threshold, tier_count, size):
    packed = array("d", shares)
    oracle = OracleEstimator([1.0])
    with chunk_size(size):
        same(
            SingleClassClassifier(oracle).classify_shares(packed),
            ref_single(shares),
        )
        same(
            TwoClassClassifier(oracle, threshold).classify_shares(packed),
            ref_two_class(shares, threshold),
        )
        same(
            LoadQuantileClassifier(oracle, tier_count).classify_shares(packed),
            ref_quantile(shares, tier_count),
        )
        same(
            PerDomainClassifier(oracle).classify_shares(packed),
            ref_per_domain(shares),
        )


@settings(max_examples=200, deadline=None)
@given(
    collections,
    priors,
    st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0)),
    chunk_sizes,
)
def test_measured_estimator_matches_list_code(rounds, prior, smoothing, size):
    with chunk_size(size):
        check_measured_estimator(rounds, prior, smoothing)


def check_measured_estimator(rounds, prior, smoothing):
    servers = [WebServer(i, 10.0) for i in range(SERVERS)]
    estimator = MeasuredEstimator(
        Environment(), servers, DOMAINS, smoothing=smoothing, prior=prior
    )
    reference = ref_prior(prior, DOMAINS)
    assert hexes(estimator.shares()) == hexes(reference)
    for hit_dicts in rounds:
        collect(estimator, servers, hit_dicts)
        reference = ref_measured_collect(
            reference, smoothing, ref_observed(hit_dicts, DOMAINS)
        )
        assert hexes(estimator.shares()) == hexes(reference)
        assert [estimator.share(j) for j in range(DOMAINS)] == list(
            estimator.shares()
        )
    assert estimator.snapshot_state()["estimate"] == reference


@settings(max_examples=200, deadline=None)
@given(collections, priors, st.integers(min_value=1, max_value=4), chunk_sizes)
def test_window_estimator_matches_list_code(rounds, prior, window, size):
    with chunk_size(size):
        check_window_estimator(rounds, prior, window)


def check_window_estimator(rounds, prior, window):
    servers = [WebServer(i, 10.0) for i in range(SERVERS)]
    estimator = SlidingWindowEstimator(
        Environment(), servers, DOMAINS, window_intervals=window, prior=prior
    )
    prior_list = ref_prior(prior, DOMAINS)
    observations = []
    for hit_dicts in rounds:
        collect(estimator, servers, hit_dicts)
        observations = (observations + [ref_observed(hit_dicts, DOMAINS)])[
            -window:
        ]
        totals = [sum(column) for column in zip(*observations)]
        expected = ref_window_shares(totals, prior_list)
        assert hexes(estimator.shares()) == hexes(expected)
        assert hexes(estimator.share(j) for j in range(DOMAINS)) == hexes(
            expected
        )
    state = estimator.snapshot_state()
    assert state["totals"] == totals
    assert state["window"] == observations


@settings(max_examples=200, deadline=None)
@given(
    share_vectors,
    st.lists(
        st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
        max_size=6,
    ),
    st.sampled_from(["1", "2", "4", "K"]),
    st.booleans(),
    chunk_sizes,
)
def test_calibration_matches_list_code(shares, tail, tiers, by_capacity, size):
    with chunk_size(size):
        check_calibration(shares, tail, tiers, by_capacity)


def check_calibration(shares, tail, tiers, by_capacity):
    total = sum(shares)
    oracle = OracleEstimator([share / total for share in shares])
    cluster = ServerCluster([1.0] + sorted(tail, reverse=True))
    state = SchedulerState(cluster, oracle)
    probabilities = capacity_selection_probabilities(state.relative_capacities)
    classifier, reference = {
        "1": (SingleClassClassifier, ref_single),
        "2": (TwoClassClassifier, ref_two_class),
        "4": (
            lambda estimator: LoadQuantileClassifier(estimator, 4),
            lambda shares: ref_quantile(shares, 4),
        ),
        "K": (PerDomainClassifier, ref_per_domain),
    }[tiers]
    policy = AdaptiveTtlPolicy(
        state, classifier(oracle), by_capacity, probabilities
    )
    class_of, class_weights = reference(list(oracle.shares()))
    domain_weights = [class_weights[c] for c in class_of]
    factors = (
        list(state.relative_capacities)
        if by_capacity
        else [1.0] * state.server_count
    )
    rate = reference_request_rate(len(shares), 240.0)
    expected = ref_calibrated_scale(
        domain_weights, factors, probabilities, rate
    )
    assert float.hex(policy.scale) == float.hex(expected)
    flat = array("d", domain_weights)
    assert float.hex(
        calibrated_scale(flat, factors, probabilities, rate)
    ) == float.hex(expected)
