"""Model types, generator rows, and structural validation."""

import hashlib

import numpy as np
import pytest

from envqueue.catalog import (
    CATALOG_NAMES,
    UnknownModel,
    base_stock,
    catalog,
    mm1_plain,
    onoff_a,
    onoff_b,
    perishable_minus,
    perishable_o,
    perishable_plus,
)
from envqueue.model import (
    EnvironmentSpec,
    InvalidParam,
    JointModel,
    MalformedMatrix,
    RateFamily,
    _strong_components,
    generator_row,
)
from envqueue.separability import reachability

from conftest import truncated_generator, two_state_model


class TestRateFamily:
    def test_constant_rates(self):
        r = RateFamily.constant(1.5, 2.5)
        assert r.arrival(0) == 1.5
        assert r.arrival(100) == 1.5
        assert r.service(0) == 0.0  # empty queue cannot serve
        assert r.service(1) == 2.5
        assert r.service(100) == 2.5

    def test_prefix_and_periodic_tail(self):
        # lambda: 3, 1 | tail (2, 5); mu(n+1): 4, 7 | tail (6, 9)
        r = RateFamily(
            lambda_prefix=(3.0, 1.0),
            mu_prefix=(4.0, 7.0),
            lambda_tail=(2.0, 5.0),
            mu_tail=(6.0, 9.0),
        )
        assert [r.arrival(n) for n in range(6)] == [3.0, 1.0, 2.0, 5.0, 2.0, 5.0]
        assert r.service(0) == 0.0
        assert r.service(1) == 4.0
        assert r.service(2) == 7.0
        assert r.service(3) == 6.0
        assert r.service(4) == 9.0
        assert r.service(9) == 6.0
        assert r.tail_start == 2
        assert r.period == 2

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(InvalidParam):
            RateFamily.constant(0.0, 1.0)
        with pytest.raises(InvalidParam):
            RateFamily.constant(1.0, -2.0)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_rate_rejected(self, flag):
        # float(True) is 1.0, so a YAML `yes` was read as the rate 1
        with pytest.raises(InvalidParam, match=f"lambda_tail must contain numbers, got {flag}"):
            RateFamily(lambda_tail=(flag,), mu_tail=(2.0,))

    @pytest.mark.parametrize("rates, message", [
        ({"lambda_prefix": (1.0,)}, "lambda_prefix and mu_prefix must have equal length"),
        ({"lambda_tail": (1.0, 2.0)}, "lambda_tail and mu_tail must have equal length"),
        ({"lambda_tail": (), "mu_tail": ()}, "tail must have period >= 1"),
    ], ids=["prefix", "tail", "no_tail"])
    def test_inconsistent_lengths_rejected(self, rates, message):
        with pytest.raises(InvalidParam) as err:
            RateFamily(**rates)
        assert str(err.value) == message


class TestEnvironmentSpec:
    def test_working_mask(self, bs_model):
        mask = bs_model.env.working_mask()
        assert list(mask) == [False, True, True]

    def test_row_sums(self, bs_model):
        for n in range(4):
            V = bs_model.env.V(n)
            assert np.abs(V.sum(axis=1)).max() < 1e-12
            R = bs_model.env.R(n + 1)
            assert np.abs(R.sum(axis=1) - 1.0).max() < 1e-12

    def test_nonstochastic_R_flagged(self):
        R = np.array([[0.5, 0.4], [0.0, 1.0]])
        with pytest.raises(MalformedMatrix, match=r"^R_tail\[0\] row 0 sums to 0.9, not 1$"):
            EnvironmentSpec.constant(labels=(0, 1), blocked=(), V=np.zeros((2, 2)), R=R)

    def test_nonconservative_V_flagged(self):
        V = np.array([[-1.0, 0.5], [1.0, -1.0]])
        with pytest.raises(MalformedMatrix, match=r"^V_tail\[0\] row 0 sums to -0.5, not 0$"):
            EnvironmentSpec.constant(labels=(0, 1), blocked=(), V=V, R=np.eye(2))

    @pytest.mark.parametrize("field, mat, message", [
        ("V_prefix", [[-1.0, 1.0], [-1.0, 1.0]], "V_prefix[1] row b has a negative rate"),
        ("V_prefix", [[-1.0, 1.0], [np.inf, -np.inf]], "V_prefix[1] row b has a non-finite entry"),
        ("R_prefix", [[1.0, 0.0], [np.nan, 1.0]], "R_prefix[1] row b has a non-finite entry"),
        ("R_prefix", [[1.0, 0.0], [-1e-300, 1.0]], "R_prefix[1] row b has a negative probability"),
        ("R_prefix", [[1.0, 0.0], [1e-11, 1.0]], "R_prefix[1] row b sums to 1.00000000001, not 1"),
        ("V_tail", [[-2.0, 1.0], [1.0, -1.0]], "V_tail[1] row a sums to -1, not 0"),
        ("R_tail", [[0.0, 0.0], [0.0, 1.0]], "R_tail[1] row a sums to 0, not 1"),
        ("V_tail", np.zeros((3, 3)), "V_tail[1] has shape (3, 3), expected (2, 2)"),
    ])
    def test_each_matrix_checked_where_named(self, field, mat, message):
        # a negative diagonal is a V's exit rate, not a defect; the message names the matrix as written
        mats = dict.fromkeys(("V_prefix", "V_tail"), ([[-1.0, 1.0], [1.0, -1.0]],) * 2)
        mats.update(dict.fromkeys(("R_prefix", "R_tail"), (np.eye(2),) * 2))
        mats[field] = (mats[field][0], mat)
        with pytest.raises(MalformedMatrix) as err:
            EnvironmentSpec(labels=("a", "b"), blocked=frozenset(), **mats)
        assert str(err.value) == message

    def test_round_off_row_sums_accepted(self):
        # a generator row within 1e-12 of its absolute sum; a stochastic row within 1e-12 of 1
        V = np.array([[-3e4, 2e4, 1e4 + 1e-8], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        R = np.array([[1.0 - 1e-13, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        EnvironmentSpec.constant(labels=(0, 1, 2), blocked=(), V=V, R=R)
        with pytest.raises(MalformedMatrix, match="V_tail"):
            EnvironmentSpec.constant(labels=(0, 1, 2), blocked=(), V=V + np.diag([0.0, 1e-11, 0.0]), R=R)

    def test_row_sums_of_huge_rates_checked(self):
        # both absolute sums pass the float range; the first row's rates sum to 3e307, the second's to 0
        rows = [[-1.7e308, 1e308, 1e308], [-1.7e308, 1e308, 0.7e308]]
        with pytest.raises(MalformedMatrix, match=r"^V_tail\[0\] row 0 sums to 3e\+307, not 0$"):
            EnvironmentSpec.constant(labels=(0, 1, 2), blocked=(), V=[rows[0], [0] * 3, [0] * 3], R=np.eye(3))
        EnvironmentSpec.constant(labels=(0, 1, 2), blocked=(), V=[rows[1], [0] * 3, [0] * 3], R=np.eye(3))

    @pytest.mark.parametrize("labels, blocked", [([[0], 1], ()), ((0, 1), [[0]]), (({}, 1), ())])
    def test_unhashable_labels_rejected(self, labels, blocked):
        with pytest.raises(InvalidParam, match="must be hashable"):
            EnvironmentSpec.constant(labels=labels, blocked=blocked, V=np.zeros((2, 2)), R=np.eye(2))

    @pytest.mark.parametrize("spec, message", [
        ({"labels": ()}, "environment needs at least one state"),
        ({"labels": ("a", "a")}, "environment labels must be distinct"),
        ({"V_prefix": (np.zeros((2, 2)),)}, "V_prefix and R_prefix must have equal length"),
        ({"R_tail": (np.eye(2),) * 2}, "V_tail and R_tail must have equal positive length"),
        ({"V_tail": (), "R_tail": ()}, "V_tail and R_tail must have equal positive length"),
    ], ids=["no_state", "repeated_label", "prefix", "tail", "no_tail"])
    def test_inconsistent_spec_rejected(self, spec, message):
        fields = {"labels": ("a", "b"), "blocked": (), "V_tail": (np.zeros((2, 2)),), "R_tail": (np.eye(2),)}
        with pytest.raises(InvalidParam) as err:
            EnvironmentSpec(**{**fields, **spec})
        assert str(err.value) == message

    def test_unknown_blocked_label_rejected(self):
        with pytest.raises(InvalidParam):
            EnvironmentSpec.constant(labels=(0, 1), blocked=(7,), V=np.zeros((2, 2)), R=np.eye(2))


class TestJointModel:
    @pytest.mark.parametrize("model", [
        lambda: mm1_plain(lam=1e308, mu=1.7e308),
        lambda: JointModel(rates=RateFamily.constant(1e308, 2.0), env=EnvironmentSpec.constant(
            (0, 1), (), [[-1.7e308, 1.7e308], [1.0, -1.0]], np.eye(2))),
    ], ids=["arrival_plus_service", "arrival_plus_move"])
    def test_overflowing_exit_rate_rejected(self, model):
        # every rate is finite, their sum is not
        with pytest.raises(InvalidParam, match=r"total exit rate of state \(\d+, 0\) overflows"):
            model()

    def test_largest_finite_exit_rate_accepted(self):
        assert generator_row(mm1_plain(lam=1e308, mu=7e307), (1, 0)).total_rate() == 1.7e308


class TestGeneratorRow:
    def test_base_stock_interior_row(self, bs_model):
        # working state (3, 2): arrival, service consuming one item, no env move
        # at top stock (replenishment is off at k = b)
        row = generator_row(bs_model, (3, 2))
        trans = dict(row.transitions)
        assert trans[(4, 2)] == 1.0  # arrival
        assert trans[(2, 1)] == 2.0  # service completion consumes an item
        assert len(trans) == 2
        assert row.total_rate() == 3.0

    @pytest.mark.parametrize("state", [(0, 0), (3, 2), (7, 1)])
    def test_row_names_its_state(self, bs_model, state):
        assert generator_row(bs_model, state).state == state

    @pytest.mark.parametrize("state", [(-1, 0), (0, 3), (2, -1)])
    def test_state_outside_refused(self, bs_model, state):
        # base stock b = 2 has environment states 0..2
        with pytest.raises(IndexError, match=rf"^state \({state[0]}, {state[1]}\) outside the state space$"):
            generator_row(bs_model, state)

    def test_blocked_state_freezes_queue(self, bs_model):
        # stock-out at (5, 0): only replenishment moves; queue is frozen
        row = generator_row(bs_model, (5, 0))
        trans = dict(row.transitions)
        assert trans == {(5, 1): 1.0}

    def test_level_zero_has_no_service(self, bs_model):
        row = generator_row(bs_model, (0, 2))
        levels = {nn for (nn, _), _ in row.transitions}
        assert levels <= {0, 1}

    def test_perishable_o_level_zero_vs_positive(self):
        model = perishable_o(lam=1.0, mu=2.0, nu=1.0, gamma=0.5, b=2)
        # at n = 0 the decay rate from k = 2 is gamma * 2; at n > 0 it is gamma * 1
        r0 = dict(generator_row(model, (0, 2)).transitions)
        r1 = dict(generator_row(model, (3, 2)).transitions)
        assert r0[(0, 1)] == pytest.approx(1.0)  # 0.5 * 2
        assert r1[(3, 1)] == pytest.approx(0.5)  # 0.5 * 1

    def test_rows_conservative_against_builder(self, per_o_b2):
        Q = truncated_generator(per_o_b2, 20)
        assert np.abs(Q.sum(axis=1)).max() < 1e-12

    def test_tail_periodicity(self, per_o_b2):
        p = per_o_b2.period
        base = per_o_b2.tail_start + 1
        for k in range(per_o_b2.n_env):
            r1 = generator_row(per_o_b2, (base, k))
            r2 = generator_row(per_o_b2, (base + p, k))
            shifted = {((nn - p, kk), rate) for (nn, kk), rate in r2.transitions}
            original = {((nn, kk), rate) for (nn, kk), rate in r1.transitions}
            assert shifted == original


class TestValidateModel:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("mm1_plain", dict(lam=1, mu=2)),
            ("base_stock", dict(lam=1, mu=2, nu=1, b=2)),
            ("onoff_a", dict(eta=1, gamma=2)),
            ("onoff_b", dict(lam=0.1, gamma=1, eta=1)),
            ("perishable_o", dict(lam=1, mu=2, nu=1, gamma=1, b=2)),
            ("perishable_minus", dict(lam=1, mu=2, nu=1, gamma=1, b=2)),
            ("perishable_plus", dict(lam=1, mu=2, nu=1, gamma=1, b=2)),
            # row sums of round-off, up to 7e-12 absolute and 4.9e-17 relative
            ("perishable_minus", dict(lam=1, mu=2, nu=7.1e4, gamma=0.37, b=200)),
        ],
    )
    def test_catalog_models_pass(self, name, params):
        assert reachability(catalog(name, **params)) is None

    def test_all_catalog_names_covered(self):
        assert set(CATALOG_NAMES) == {
            "mm1_plain",
            "base_stock",
            "onoff_a",
            "onoff_b",
            "perishable_o",
            "perishable_minus",
            "perishable_plus",
        }

    @pytest.mark.parametrize(
        "model, verdict",
        [
            # no environment move changes the level: every level is a closed class
            (two_state_model(blocked=(0, 1)),
             ("SeveralClosedClasses", "infinitely many closed classes; one holds [(0, 0), (0, 1)]")),
            # a -> b -> c one way, and the blocked c freezes the queue: every (n, c) is a closed class
            (JointModel(rates=RateFamily.constant(1.0, 2.0), env=EnvironmentSpec.constant(
                ("a", "b", "c"), ("c",), [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]], np.eye(3))),
             ("SeveralClosedClasses", "infinitely many closed classes; one holds [(0, 'c')]")),
            # two working states that never switch: two closed classes, each at every level
            (JointModel(rates=RateFamily.constant(1.0, 2.0), env=EnvironmentSpec.constant(
                ("a", "b"), (), np.zeros((2, 2)), np.eye(2))),
             ("SeveralClosedClasses", "2 closed classes; one holds [(0, 'a'), (1, 'a')]")),
            # blocked a moves to working b, which is never left: (n, a) is transient
            (JointModel(rates=RateFamily.constant(1.0, 2.0), env=EnvironmentSpec.constant(
                ("a", "b"), ("a",), [[-1.0, 1.0], [0.0, 0.0]], np.eye(2))),
             ("TransientStates", "one closed class; state (0, 'a') is outside it")),
            # irreducible, but no Qred(n) is one strong component, and block level 0 reaches some of its
            # phases only through the levels above it, the moves A0 G of the verdict's graph
            (JointModel(rates=RateFamily(lambda_prefix=(1.0,), mu_prefix=(2.0,), lambda_tail=(1.0,), mu_tail=(2.0,)),
                        env=EnvironmentSpec(labels=("a", "b", "c"), blocked=("a",), V_tail=(
                            [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]],
                            [[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                            [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]), R_tail=(
                            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                            [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
                            [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))),
             None),
        ],
        ids=["all_blocked", "one_way", "split", "island", "excursion"],
    )
    def test_not_irreducible_names_smallest_lowest_class(self, model, verdict):
        # plain ints, and among the smallest closed classes the one holding the lowest state
        assert reachability(model) == verdict

    def test_unknown_catalog_name(self):
        with pytest.raises(UnknownModel):
            catalog("no_such_model")

    def test_invalid_base_level(self):
        with pytest.raises(InvalidParam):
            base_stock(lam=1, mu=2, nu=1, b=0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(InvalidParam):
            perishable_o(lam=1, mu=2, nu=1, gamma=-0.5, b=2)

    @pytest.mark.parametrize("params, message", [
        (dict(lam=True, mu=2, nu=1, gamma=1, b=2), "parameter lam must be a positive number, got True"),
        (dict(lam=1, mu=2, nu=1, gamma=False, b=2), "ageing rate gamma must be a number >= 0, got False"),
        (dict(lam=1, mu=2, nu=1, gamma=1, b=True), "base stock level b must be an integer >= 1, got True"),
        (dict(lam=1, mu=2, nu=1, gamma=1, b=np.True_), "base stock level b must be an integer >= 1, got True"),
        # an infinite rate was refused as a non-finite matrix entry
        (dict(lam=1, mu=2, nu=np.inf, gamma=1, b=2), "parameter nu must be finite, got inf"),
        (dict(lam=1, mu=2, nu=1, gamma=np.inf, b=2), "ageing rate gamma must be finite, got inf"),
        (dict(lam=1, mu=np.inf, nu=1, gamma=1, b=2), "parameter mu must be finite, got inf"),
    ])
    def test_boolean_parameter_rejected(self, params, message):
        with pytest.raises(InvalidParam, match=message):
            perishable_o(**params)

    def test_gamma_zero_degenerates_to_base_stock(self):
        frozen = perishable_minus(lam=1, mu=2, nu=1, gamma=0.0, b=2)
        bs = base_stock(lam=1, mu=2, nu=1, b=2)
        for n in range(4):
            assert np.array_equal(frozen.V(n), bs.V(n))
            assert np.array_equal(frozen.R(n + 1), bs.R(n + 1))


class TestStrongComponents:
    def test_matches_scipy(self):
        # the labels, not only the partition: closed classes are taken in label order
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        from scipy.sparse import csr_matrix

        rng = np.random.default_rng(7)
        for _ in range(300):
            size = int(rng.integers(1, 60))
            adjacency = rng.random((size, size)) < rng.uniform(0.0, 0.2)
            _, expected = csgraph.connected_components(csr_matrix(adjacency), directed=True, connection="strong")
            assert np.array_equal(_strong_components(*np.nonzero(adjacency), size), expected)

    def test_deep_graphs(self):
        # a path and a cycle far deeper than the recursion limit
        size = 20_000
        path = np.arange(size - 1), np.arange(1, size)
        assert np.array_equal(np.sort(_strong_components(*path, size)), np.arange(size))
        cycle = np.arange(size), (np.arange(size) + 1) % size
        assert not _strong_components(*cycle, size).any()


# points that reach every branch of the builders: gamma = 0 and > 0, b = 1 and > 1,
# on-off depth 0, 1 and the default 8; one bit moved in any rate or matrix entry changes a digest
PINNED_SIGNATURES = [
    ("mm1_plain", dict(lam=1, mu=2),
     "85cde6c03fcf72f89930458b8bf3519b0051a28c231585c12af92cb049bdefea"),
    ("base_stock", dict(lam=1, mu=2, nu=1.5, b=1),
     "9f290677419f4e3806d21c5f8777b5c4d1c7499a798fad511f3572d49441e3b0"),
    ("base_stock", dict(lam=0.9, mu=1, nu=3, b=5),
     "aa44598bd58a8060ab95794d17196cc66f117703d3653767db7801131b29a78b"),
    ("perishable_minus", dict(lam=1, mu=2, nu=1, gamma=0, b=1),
     "1a9400befd9074dc0bd2b604ba09de97e331e1e4f7577be7f4e3b46352b3d52a"),
    ("perishable_minus", dict(lam=1, mu=2, nu=1, gamma=2, b=3),
     "0244620f343722343a1a6274dfae875268fd2fb424dc0ea83b329825c42ad213"),
    ("perishable_o", dict(lam=1, mu=2, nu=1, gamma=0, b=2),
     "cb6959b24fddc6a7cbdae196938245adda90a4bec93e4c5a18b04053502e2965"),
    ("perishable_o", dict(lam=1, mu=2, nu=1, gamma=0.5, b=1),
     "90ddd5e3a62a76301483fe3137137dbf6ab0bbf2a80be1168ff5ffe00d83b5e2"),
    ("perishable_o", dict(lam=1, mu=2, nu=10, gamma=2, b=30),
     "bf0e9b97f566d0a3bf7a466a3350de07917d56f86479da2592d0ef82586de38d"),
    ("perishable_plus", dict(lam=1, mu=2, nu=1, gamma=0, b=2),
     "142454511d5c82a55541b935b69bb35312c525ee44b7aa7c9258e58cf01e1930"),
    ("perishable_plus", dict(lam=1, mu=2, nu=1, gamma=2, b=1),
     "eb67793fe360ce6b3f8eac0f4cce4aaa070f3e426c76d16c80f1f6bcd499417c"),
    ("perishable_plus", dict(lam=1, mu=2, nu=1, gamma=0.5, b=3),
     "99b0cd7d0d2244c61295eace2dc40c035f1ce9caf7674c18148381a2c75e6a5c"),
    ("onoff_a", dict(eta=0.5, gamma=1, depth=0),
     "e64165d616a776a7a7d1bfae0917fbc4a4c042f62251ebed1ee89abe6f979b41"),
    ("onoff_a", dict(eta=0.5, gamma=1, lam=1.5, mu=3, depth=1),
     "0e594bc8afe5942bdfb066b48580e22a6a7839e9c33faabc81ea911818c35019"),
    ("onoff_a", dict(eta=0.71472, gamma=2.40009, lam=2.37801, mu=2.40763),
     "4af4ac254d06a5d4b12b124f3a102e5c1f0d23276fefbec79c541968fcb632bc"),
    ("onoff_b", dict(lam=0.2, gamma=1, eta=2, depth=0),
     "4e00f04c30a58c0b31ced1139324eccc79f7b1080e667684ebca8cea9fa2c961"),
    ("onoff_b", dict(lam=0.2, gamma=1, eta=2, mu=3, depth=1),
     "45e52310b076af725341a9fd1981792a68409ce93f09aa7892ecd03adb782e6b"),
    ("onoff_b", dict(lam=0.2, gamma=1, eta=2),
     "200cda8f164e836e85d86ad7cabd4aaeb7c1b5ce550072297cc163051e2450ef"),
]


class TestSignature:
    @pytest.mark.parametrize("name, params, digest", PINNED_SIGNATURES)
    def test_catalog_models_pinned(self, name, params, digest):
        assert hashlib.sha256(catalog(name, **params).signature().encode()).hexdigest() == digest

    def test_pins_cover_the_catalog(self):
        assert {name for name, _, _ in PINNED_SIGNATURES} == set(CATALOG_NAMES)

    def test_signature_stable_and_distinct(self):
        a = base_stock(lam=1, mu=2, nu=1, b=2)
        b = base_stock(lam=1, mu=2, nu=1, b=2)
        c = base_stock(lam=1, mu=2, nu=1.5, b=2)
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()
