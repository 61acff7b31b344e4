import numpy as np
import pytest

from arcwalk import (
    NOT_COSPECTRAL,
    CospectralityWitness,
    DirectWitness,
    SignPattern,
    State,
    build_arc_space,
    check_strong_cospectrality,
    check_strong_cospectrality_direct,
    flat_arc_state,
    eigendecompose_symmetric,
    from_edge_list,
    hadamard_search,
    initial_state,
    walk_spectrum,
)

from arcwalk.walk import apply_walk

from conftest import RANDOM_20_4_EDGES, get_bundle


def test_sign_pattern_validation_and_order():
    with pytest.raises(ValueError, match="sign_e0"):
        SignPattern(0, (0,))
    with pytest.raises(ValueError, match="bits"):
        SignPattern(1, (2,))
    p = SignPattern(1, (1, 0))
    assert p.encode() == 0b010
    assert p.label() == "+-+"
    assert list(p.signs()) == [1, -1, 1]


def test_k4_flat_target_witness_values():
    b = get_bundle("k4")
    cert = hadamard_search(b.dec)[0]
    y = flat_arc_state(b.arcs, cert.matrix[:, 0])
    witness = check_strong_cospectrality(b.dec, b.arcs, 0, y)
    assert isinstance(witness, CospectralityWitness)
    assert witness.sign_e0 == 1
    assert witness.deltas[1] == pytest.approx(np.pi, abs=1e-8)
    assert max(witness.residuals.values()) < 1e-8

    direct = check_strong_cospectrality_direct(b.ws, initial_state(b.arcs, 0), y)
    assert isinstance(direct, DirectWitness)
    # the +1 projection carries no phase, the theta pair carries +-pi
    assert direct.phases["plus1"] == pytest.approx(0.0, abs=1e-8)
    assert abs(direct.phases["pair1+"]) == pytest.approx(np.pi, abs=1e-8)


def test_vertex_state_is_cospectral_with_itself():
    b = get_bundle("petersen")
    x = initial_state(b.arcs, 0)
    adj = check_strong_cospectrality(b.dec, b.arcs, 0, x)
    assert isinstance(adj, CospectralityWitness)
    assert adj.sign_e0 == 1
    for r, delta in adj.deltas.items():
        assert delta == pytest.approx(0.0, abs=1e-8)
    direct = check_strong_cospectrality_direct(b.ws, x, x)
    assert isinstance(direct, DirectWitness)


def test_shifted_vertex_states_are_not_cospectral():
    b = get_bundle("rook4")
    x1 = initial_state(b.arcs, 1)
    assert check_strong_cospectrality(b.dec, b.arcs, 0, x1) == NOT_COSPECTRAL
    x0 = initial_state(b.arcs, 0)
    assert check_strong_cospectrality_direct(b.ws, x0, x1) == NOT_COSPECTRAL


def _random_states(arcs, count, seed):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        z = rng.normal(size=arcs.num_arcs) + 1j * rng.normal(size=arcs.num_arcs)
        states.append(State(z / np.linalg.norm(z)))
    return states


@pytest.mark.parametrize("name", ["k4", "petersen", "rook4"])
def test_both_routes_agree_on_curated_pairs(name):
    """The two checkers must agree accept/reject on every curated pair."""
    b = get_bundle(name)
    certs = hadamard_search(b.dec)
    pairs = []
    for a in (0, 1):
        pairs.append((a, initial_state(b.arcs, a)))  # identity, accepted
    for other in (1, 2, 3):
        pairs.append((0, initial_state(b.arcs, other)))  # shifted, rejected
    for cert in certs:
        for a in (0, 1):
            pairs.append((a, flat_arc_state(b.arcs, cert.matrix[:, a])))
        # perturb one sign of the flat target, which breaks cospectrality
        w = cert.matrix[:, 0].copy()
        w[2] *= -1
        pairs.append((0, flat_arc_state(b.arcs, w)))
    pairs.extend((0, y) for y in _random_states(b.arcs, 20, seed=7))
    assert len(pairs) >= 25

    agreements = 0
    for a, y in pairs:
        adj = check_strong_cospectrality(b.dec, b.arcs, a, y)
        direct = check_strong_cospectrality_direct(b.ws, initial_state(b.arcs, a), y)
        adj_ok = adj != NOT_COSPECTRAL
        dir_ok = direct != NOT_COSPECTRAL
        assert adj_ok == dir_ok, (a, adj, direct)
        if adj_ok:
            # phases agree per eigenvalue class up to conjugation
            for r, delta in adj.deltas.items():
                if delta is None:
                    continue
                other = direct.phases.get(f"pair{r}+")
                assert other is not None
                assert np.cos(other) == pytest.approx(np.cos(delta), abs=1e-6)
            plus1 = direct.phases["plus1"]
            assert np.cos(plus1) == pytest.approx(adj.sign_e0, abs=1e-6)
        agreements += 1
    assert agreements == len(pairs)


def test_routes_agree_on_a_class_that_barely_touches_the_start():
    """U^t x_16 is cospectral with x_16 by definition. Class 3 has
    ||E_3 e_16|| = 5.8e-7, so an error in its head cosine must be weighed
    in the unit of the residuals, not against TAU_COSP as it stands."""
    g = from_edge_list(RANDOM_20_4_EDGES, 20)
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    assert np.linalg.norm(dec.idempotents[3][:, 16]) == pytest.approx(5.8e-7, rel=0.01)
    ws = walk_spectrum(dec, arcs)
    x = initial_state(arcs, 16)
    y = x.amplitudes.real
    for t in range(1, 41):
        y = apply_walk(arcs, y)
        target = State(y / np.linalg.norm(y))
        assert check_strong_cospectrality(dec, arcs, 16, target) != NOT_COSPECTRAL, t
        assert check_strong_cospectrality_direct(ws, x, target) != NOT_COSPECTRAL, t


def test_accepted_flat_targets_are_real_up_to_phase():
    for name in ("k4", "rook4"):
        b = get_bundle(name)
        for cert in hadamard_search(b.dec):
            y = flat_arc_state(b.arcs, cert.matrix[:, 0])
            assert check_strong_cospectrality(b.dec, b.arcs, 0, y) != NOT_COSPECTRAL
            lead = y.amplitudes[np.argmax(np.abs(y.amplitudes))]
            aligned = y.amplitudes * np.conj(lead / abs(lead))
            assert np.abs(aligned.imag).max() < 1e-8


def test_adjacency_route_rejects_bipartite_graphs():
    b = get_bundle("c4")
    x = initial_state(b.arcs, 0)
    with pytest.raises(ValueError, match="non-bipartite"):
        check_strong_cospectrality(b.dec, b.arcs, 0, x)
    # the walk-level route still works there
    assert check_strong_cospectrality_direct(b.ws, x, x) != NOT_COSPECTRAL


def test_direct_route_rejects_wrong_length():
    b = get_bundle("k4")
    short = State(np.ones(4) / 2.0)
    with pytest.raises(ValueError, match="arcs"):
        check_strong_cospectrality_direct(b.ws, short, short)
    with pytest.raises(ValueError, match="arcs"):
        check_strong_cospectrality(b.dec, b.arcs, 0, short)


@pytest.mark.parametrize("tau", [float("nan"), -1e-8])
def test_both_routes_refuse_a_nan_or_negative_tolerance(tau):
    """At NaN no residual compares above tau, so both routes accepted any
    target: petersen's x_0 against a random unit state, which both reject
    at the default tolerance."""
    b = get_bundle("petersen")
    z = np.random.default_rng(5).standard_normal((2, b.arcs.num_arcs))
    y = State((z[0] + 1j * z[1]) / np.linalg.norm(z[0] + 1j * z[1]))
    x = initial_state(b.arcs, 0)
    assert check_strong_cospectrality(b.dec, b.arcs, 0, y) == NOT_COSPECTRAL
    assert check_strong_cospectrality_direct(b.ws, x, y) == NOT_COSPECTRAL
    with pytest.raises(ValueError, match="tau"):
        check_strong_cospectrality(b.dec, b.arcs, 0, y, tau=tau)
    with pytest.raises(ValueError, match="tau"):
        check_strong_cospectrality_direct(b.ws, x, y, tau=tau)
