import numpy as np

from magloc.geom import boxplus, exp_so3, rot_z, skew

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

    def test_small_angle(self):
        # Below SMALL_ANGLE the Taylor terms apply: exp(phi) = I + [phi]x
        # to second order, alone and inside a stack of larger angles.
        phi = np.array([1e-10, -2e-10, 5e-11])
        expected = np.eye(3) + skew(phi)
        np.testing.assert_allclose(exp_so3(phi), expected, rtol=0, atol=1e-19)
        stack = exp_so3(np.stack([phi, [0.0, 0.0, 0.5]]))
        assert np.array_equal(stack[0], exp_so3(phi))


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
    """The planar increment: a world-frame dp added to the position and a
    yaw increment added to the yaw, wrapped to (-pi, pi]."""

    def test_neutral_element(self, rng):
        for _ in range(20):
            position, yaw = rng.normal(size=3), rng.uniform(-np.pi, np.pi)
            out_p, out_yaw = boxplus(position, yaw, np.zeros(3), 0.0)
            np.testing.assert_array_equal(out_p, position)
            assert out_yaw == yaw

    def test_pure_translation(self):
        # dp is in the world frame: the yaw does not turn it.
        out_p, out_yaw = boxplus(np.zeros(3), 1.2, np.array([1.0, 2.0, 3.0]),
                                 0.0)
        np.testing.assert_array_equal(out_p, [1.0, 2.0, 3.0])
        assert out_yaw == 1.2

    def test_right_perturbation_convention(self, rng):
        # Turning by dyaw right-multiplies the body rotation by the
        # rotation about z, across +-pi included.
        for yaw in np.concatenate([rng.uniform(-np.pi, np.pi, size=20),
                                   [np.pi - 0.1, -np.pi + 0.1]]):
            dyaw = rng.normal() * 0.5
            _, out = boxplus(np.zeros(3), yaw, np.zeros(3), dyaw)
            np.testing.assert_allclose(
                rot_z(out), rot_z(yaw) @ exp_so3(np.array([0.0, 0.0, dyaw])),
                rtol=0, atol=1e-12)

    def test_wrap_across_pi(self):
        for yaw, dyaw, expected in ((np.pi - 0.1, 0.3, -np.pi + 0.2),
                                    (-np.pi + 0.1, -0.3, np.pi - 0.2),
                                    (np.pi, 0.0, np.pi),
                                    (-np.pi, 0.0, np.pi),
                                    (0.5, 4 * np.pi, 0.5)):
            _, out = boxplus(np.zeros(3), yaw, np.zeros(3), dyaw)
            assert -np.pi < out <= np.pi
            assert abs(out - expected) < 1e-12

    def test_sequential_vs_composed(self, rng):
        # Two yaw increments compose to their sum, to rounding, and two
        # translations to theirs.
        for _ in range(20):
            position, yaw = rng.normal(size=3), rng.uniform(-np.pi, np.pi)
            d1, d2 = rng.normal(size=2) * 2.0
            p1, p2 = rng.normal(size=3), rng.normal(size=3)
            seq = boxplus(*boxplus(position, yaw, p1, d1), p2, d2)
            comp = boxplus(position, yaw, p1 + p2, d1 + d2)
            np.testing.assert_allclose(seq[0], comp[0], rtol=0, atol=1e-12)
            diff = seq[1] - comp[1]
            assert abs(np.angle(np.exp(1j * diff))) < 1e-12
