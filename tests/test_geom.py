import numpy as np

from magloc.geom import (PosePerturbation, PoseState, boxplus, exp_so3,
                         log_so3, rot_z, skew)

from conftest import random_rotation
from helpers import RigidTransform, compose, inverse


class TestSkew:
    def test_zero(self):
        assert np.array_equal(skew(np.zeros(3)), np.zeros((3, 3)))

    def test_unit_x(self):
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0.0]])
        assert np.array_equal(skew(np.array([1.0, 0.0, 0.0])), expected)

    def test_matches_cross_product(self, rng):
        for _ in range(100):
            v, w = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(skew(v) @ w, np.cross(v, w), atol=1e-12)

    def test_antisymmetric(self, rng):
        s = skew(rng.normal(size=3))
        np.testing.assert_allclose(s, -s.T)



class TestRotZ:
    def test_matches_exp_of_z_rotation_vector(self, rng):
        for yaw in np.concatenate([rng.uniform(-7.0, 7.0, size=50),
                                   [0.0, np.pi, -np.pi, np.pi / 2]]):
            r = rot_z(yaw)
            np.testing.assert_allclose(r, exp_so3(np.array([0.0, 0.0, yaw])),
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(r.T @ r, np.eye(3), rtol=0, atol=1e-15)
            assert np.array_equal(r[2], [0.0, 0.0, 1.0])
            assert np.array_equal(r[:, 2], [0.0, 0.0, 1.0])


class TestExpLog:
    def test_exp_zero_is_identity(self):
        assert np.array_equal(exp_so3(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        r = exp_so3(np.array([0.0, 0.0, np.pi / 2]))
        np.testing.assert_allclose(r @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_exp_inverse_composition(self, rng):
        for _ in range(50):
            phi = rng.normal(size=3)
            np.testing.assert_allclose(exp_so3(phi) @ exp_so3(-phi), np.eye(3),
                                       atol=1e-10)

    def test_exp_is_rotation(self, rng):
        for _ in range(50):
            r = exp_so3(rng.normal(size=3) * 2.0)
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_log_identity(self):
        assert np.array_equal(log_so3(np.eye(3)), np.zeros(3))

    def test_log_round_trip(self):
        phi = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(log_so3(exp_so3(phi)), phi, atol=1e-10)

    def test_round_trip_many(self, rng):
        # Principal-branch round trip stays below 1e-8 rad away from pi.
        worst = 0.0
        for _ in range(1000):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            phi = axis * rng.uniform(0.0, np.pi - 1e-3)
            worst = max(worst, np.linalg.norm(log_so3(exp_so3(phi)) - phi))
        assert worst < 1e-8

    def test_pi_branch(self):
        phi = log_so3(exp_so3(np.array([np.pi, 0.0, 0.0])))
        assert np.linalg.norm(np.abs(phi) - [np.pi, 0, 0]) < 1e-6

    def test_small_angle(self):
        phi = np.array([1e-10, -2e-10, 5e-11])
        np.testing.assert_allclose(log_so3(exp_so3(phi)), phi, atol=1e-18)


class TestRigidTransform:
    """The rigid-transform oracle that the window tests compose their
    per-entry reference from."""

    def test_compose_identity(self, rng):
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        out = compose(t, RigidTransform.identity())
        np.testing.assert_allclose(out.rotation, t.rotation)
        np.testing.assert_allclose(out.translation, t.translation)

    def test_inverse_identity(self):
        inv = inverse(RigidTransform.identity())
        np.testing.assert_allclose(inv.rotation, np.eye(3))
        np.testing.assert_allclose(inv.translation, np.zeros(3))

    def test_inverse_round_trip(self, rng):
        for _ in range(20):
            t = RigidTransform(random_rotation(rng), rng.normal(size=3))
            out = compose(inverse(t), t)
            np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-10)
            np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-10)

    def test_composition_formula(self, rng):
        a = RigidTransform(random_rotation(rng), rng.normal(size=3))
        b = RigidTransform(random_rotation(rng), rng.normal(size=3))
        out = compose(a, b)
        np.testing.assert_allclose(out.rotation, a.rotation @ b.rotation)
        np.testing.assert_allclose(out.translation,
                                   a.rotation @ b.translation + a.translation)

    def test_orthonormality_drift(self, rng):
        # No re-orthonormalization inside compose: drift must stay tiny
        # through long chains anyway.
        t = RigidTransform.identity()
        for _ in range(10000):
            t = compose(t, RigidTransform(random_rotation(rng), np.zeros(3)))
        assert np.linalg.norm(t.rotation.T @ t.rotation - np.eye(3)) < 1e-7


class TestBoxplus:
    def test_neutral_element(self, rng):
        x = PoseState(rng.normal(size=3), rng.normal(size=3))
        out = boxplus(x, PosePerturbation())
        np.testing.assert_array_equal(out.position, x.position)
        np.testing.assert_array_equal(out.orientation, x.orientation)

    def test_pure_translation(self):
        out = boxplus(PoseState(np.zeros(3), np.zeros(3)),
                      PosePerturbation(dp=np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(out.position, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(out.orientation, np.zeros(3))

    def test_right_perturbation_convention(self, rng):
        x = PoseState(rng.normal(size=3), rng.normal(size=3))
        dphi = rng.normal(size=3) * 0.1
        out = boxplus(x, PosePerturbation(dphi=dphi))
        np.testing.assert_allclose(out.rotation(), x.rotation() @ exp_so3(dphi),
                                   atol=1e-10)

    def test_sequential_vs_composed(self, rng):
        # Two small perturbations agree with the composed one to O(|dx|^2).
        for _ in range(10):
            x = PoseState(rng.normal(size=3), rng.normal(size=3))
            d1 = rng.normal(size=3) * 1e-4
            d2 = rng.normal(size=3) * 1e-4
            seq = boxplus(boxplus(x, PosePerturbation(dphi=d1)),
                          PosePerturbation(dphi=d2))
            comp = boxplus(x, PosePerturbation(dphi=d1 + d2))
            err = np.linalg.norm(seq.rotation() - comp.rotation())
            assert err < 10.0 * np.linalg.norm(d1) * np.linalg.norm(d2) + 1e-12
