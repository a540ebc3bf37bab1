"""Tests of the non-linear models: kernels, GP, PLS, KNN, trees, ensembles, MLP, GP symbolic."""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostRegressor,
    DecisionTreeRegressor,
    GaussianProcessRegressor,
    GradientBoostingRegressor,
    KernelRidge,
    KNeighborsRegressor,
    MLPRegressor,
    PLSRegression,
    RandomForestRegressor,
    ScaledRegressor,
    SymbolicRegressor,
    build_model,
    r2_score,
    rbf_kernel,
)


def make_nonlinear_data(n=120, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + noise * rng.normal(0, 1, n)
    return X, y


def test_rbf_kernel_properties():
    A = np.random.default_rng(0).normal(size=(10, 3))
    K = rbf_kernel(A, A, gamma=0.5)
    assert np.allclose(np.diag(K), 1.0)
    assert np.allclose(K, K.T)
    assert np.all((K >= 0) & (K <= 1 + 1e-12))


def test_kernel_ridge_fits_nonlinear_function():
    X, y = make_nonlinear_data()
    model = ScaledRegressor(KernelRidge(alpha=0.05, kernel="rbf"), scale_target=True).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.9


def test_kernel_ridge_rejects_bad_alpha():
    with pytest.raises(ValueError):
        KernelRidge(alpha=0.0)


def test_gaussian_process_interpolates_training_points():
    X, y = make_nonlinear_data(n=60, noise=0.0)
    model = ScaledRegressor(GaussianProcessRegressor(noise=1e-4), scale_target=True).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.98


def test_gaussian_process_std_positive():
    X, y = make_nonlinear_data(n=40)
    gp = GaussianProcessRegressor(noise=1e-3).fit(X, y)
    mean, std = gp.predict_with_std(X[:5])
    assert mean.shape == (5,)
    assert np.all(std > 0)


def test_pls_regression_matches_linear_structure():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 6))
    y = X[:, 0] * 2 - X[:, 1] + 0.01 * rng.normal(size=100)
    model = PLSRegression(n_components=3).fit(X, y)
    assert model.score(X, y) > 0.98
    assert model.n_components_ <= 3


def test_pls_rejects_bad_components():
    with pytest.raises(ValueError):
        PLSRegression(n_components=0)


def test_knn_exact_on_training_points_with_distance_weights():
    X, y = make_nonlinear_data(n=50, noise=0.0)
    model = KNeighborsRegressor(n_neighbors=3, weights="distance").fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.99


def test_knn_validates_parameters():
    with pytest.raises(ValueError):
        KNeighborsRegressor(n_neighbors=0)
    with pytest.raises(ValueError):
        KNeighborsRegressor(weights="other")


def test_decision_tree_fits_step_function():
    X = np.linspace(0, 1, 100).reshape(-1, 1)
    y = (X[:, 0] > 0.5).astype(float)
    model = DecisionTreeRegressor(max_depth=3, min_samples_leaf=1).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.99
    assert model.depth() <= 3


def test_decision_tree_respects_max_depth():
    X, y = make_nonlinear_data(n=200)
    shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
    deep = DecisionTreeRegressor(max_depth=8).fit(X, y)
    assert shallow.depth() <= 2
    assert r2_score(y, deep.predict(X)) > r2_score(y, shallow.predict(X))


def _scalar_best_split(self, X, y, feature_indices):
    """The per-position scalar split search the vectorised one replaced.

    Kept as the oracle of the differential tests below: it scans features
    in ``feature_indices`` order and split positions left to right, keeping
    a strictly better score, and squares float64 *scalars* with ``**``.
    """
    n_samples = X.shape[0]
    parent_score = float(np.sum((y - y.mean()) ** 2))
    best = None
    best_score = parent_score - 1e-12
    for feature in feature_indices:
        order = np.argsort(X[:, feature], kind="mergesort")
        x_sorted = X[order, feature]
        y_sorted = y[order]
        prefix = np.cumsum(y_sorted)
        prefix_sq = np.cumsum(y_sorted ** 2)
        total = prefix[-1]
        total_sq = prefix_sq[-1]
        for split in range(self.min_samples_leaf, n_samples - self.min_samples_leaf + 1):
            if split < 1 or split >= n_samples:
                continue
            if x_sorted[split - 1] == x_sorted[split]:
                continue
            left_sum = prefix[split - 1]
            left_sq = prefix_sq[split - 1]
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            left_score = left_sq - left_sum ** 2 / split
            right_score = right_sq - right_sum ** 2 / (n_samples - split)
            score = left_score + right_score
            if score < best_score:
                best_score = score
                threshold = 0.5 * (x_sorted[split - 1] + x_sorted[split])
                best = (int(feature), float(threshold))
    return best


def _random_node(rng, case):
    """One seeded node: continuous, integer-valued or duplicated columns."""
    n = int(rng.integers(2, 48))
    n_features = int(rng.integers(1, 9))
    if case == 0:
        X = rng.normal(size=(n, n_features)) * 10.0 ** rng.integers(-2, 4)
    elif case == 1:
        X = rng.integers(0, 5, size=(n, n_features)).astype(float)
    else:
        X = rng.integers(0, 3, size=(n, n_features)).astype(float)
        X[:, rng.integers(0, n_features)] = X[:, 0]
    if rng.random() < 0.5:
        y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 5)
    else:
        y = rng.integers(0, 4, size=n).astype(float) * 37.0
    return X, y


def test_vectorised_split_search_matches_scalar_oracle():
    rng = np.random.default_rng(2024)
    found = 0
    for index in range(3000):
        X, y = _random_node(rng, index % 3)
        n_features = X.shape[1]
        feature_indices = rng.permutation(n_features)[: int(rng.integers(1, n_features + 1))]
        tree = DecisionTreeRegressor(min_samples_leaf=int(rng.integers(1, 4)))
        expected = _scalar_best_split(tree, X, y, feature_indices)
        assert tree._best_split(X, y, feature_indices) == expected
        found += expected is not None
    assert found > 1000  # most nodes do have a split to agree on


def test_split_search_on_smallest_nodes():
    tree = DecisionTreeRegressor(min_samples_leaf=1)
    X = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert tree._best_split(X, np.array([0.0, 1.0]), np.array([1, 0])) == (0, 0.5)
    assert tree._best_split(X, np.array([2.0, 2.0]), np.array([0, 1])) is None
    # Two leaves of at least 2 samples cannot come out of 3.
    wide = DecisionTreeRegressor(min_samples_leaf=2)
    assert wide._best_split(X[:1].repeat(3, axis=0), np.arange(3.0), np.array([0])) is None
    # Both halves keep the parent's mean: the score only matches the parent's
    # up to rounding, which the 1e-12 margin must not take for a gain.
    halves = np.array([[0.0], [0.0], [1.0], [1.0]])
    assert tree._best_split(halves, np.array([0.1, 0.7, 0.7, 0.1]), np.array([0])) is None


def test_split_search_rounds_near_ties_like_scalar_oracle():
    """Both features separate the same rows, so the two scores tie in exact
    arithmetic and the pick rests on how the squared sums round: squaring
    the sums as ``x*x`` instead of through ``pow()`` picks feature 1 here."""
    X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    y = np.array([704.0, 700.4, 700.4])
    tree = DecisionTreeRegressor(min_samples_leaf=1)
    for feature_indices in (np.array([0, 1]), np.array([1, 0])):
        expected = _scalar_best_split(tree, X, y, feature_indices)
        assert tree._best_split(X, y, feature_indices) == expected


def _zoo_feature_matrix():
    """A fixed matrix shaped like the flow's: counts, a duplicate, real ratios."""
    rng = np.random.default_rng(0)
    n = 90
    counts = rng.integers(0, 400, size=(n, 3)).astype(float)
    ratios = rng.uniform(0.0, 1.0, size=(n, 2)).round(3)
    X = np.column_stack([counts, counts[:, 0], ratios])
    y = 3.0 * counts[:, 0] + 50.0 * ratios[:, 0] ** 2 + rng.normal(size=n)
    return X, y


@pytest.mark.parametrize("model_id", ["ML5", "ML6", "ML7", "ML18"])
def test_tree_models_bitwise_equal_to_scalar_split_search(model_id, monkeypatch):
    X, y = _zoo_feature_matrix()
    names = [f"f{i}" for i in range(X.shape[1])]
    vectorised = build_model(model_id, names, random_state=3).fit(X, y).predict(X)
    monkeypatch.setattr(DecisionTreeRegressor, "_best_split", _scalar_best_split)
    scalar = build_model(model_id, names, random_state=3).fit(X, y).predict(X)
    assert np.array_equal(vectorised, scalar)


def test_random_forest_beats_constant_baseline():
    X, y = make_nonlinear_data(n=150)
    model = RandomForestRegressor(n_estimators=20, max_depth=6, random_state=1).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.8


def test_random_forest_deterministic_for_seed():
    X, y = make_nonlinear_data(n=80)
    first = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y).predict(X)
    second = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y).predict(X)
    assert np.allclose(first, second)


def test_gradient_boosting_training_error_decreases_with_stages():
    X, y = make_nonlinear_data(n=150)
    few = GradientBoostingRegressor(n_estimators=5, random_state=2).fit(X, y)
    many = GradientBoostingRegressor(n_estimators=100, random_state=2).fit(X, y)
    assert r2_score(y, many.predict(X)) > r2_score(y, few.predict(X))


def test_adaboost_fits_reasonably():
    X, y = make_nonlinear_data(n=150)
    model = AdaBoostRegressor(n_estimators=25, max_depth=4, random_state=3).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.7
    assert len(model.estimators_) >= 1


def test_mlp_learns_smooth_function():
    X, y = make_nonlinear_data(n=200, noise=0.02)
    model = ScaledRegressor(
        MLPRegressor(hidden_layer_sizes=(32, 16), max_iter=200, random_state=4),
        scale_target=True,
    ).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.85


def test_mlp_rejects_empty_hidden_layers():
    with pytest.raises(ValueError):
        MLPRegressor(hidden_layer_sizes=())


def test_symbolic_regression_recovers_simple_relation():
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, size=(80, 2))
    y = X[:, 0] + X[:, 1]
    model = SymbolicRegressor(population_size=60, generations=15, random_state=1).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.7
    assert isinstance(model.expression_string(["a", "b"]), str)


def test_ensembles_validate_parameters():
    with pytest.raises(ValueError):
        RandomForestRegressor(n_estimators=0)
    with pytest.raises(ValueError):
        GradientBoostingRegressor(subsample=0.0)
