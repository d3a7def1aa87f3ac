import math

import numpy as np
import pytest

from conftest import random_unit_vectors
from vdwplate.model import Molecule, PlateConfig, reflect
from vdwplate.potential import (ChargeSet, classical_potential,
                                greens_coefficients, hydrogen_image_bracket,
                                hydrogen_plate_potential, interaction_energy,
                                molecule_mirror_interaction)

E1 = np.array([1.0, 0.0, 0.0])


class TestGreensCoefficients:
    def test_matched_media(self):
        g = greens_coefficients(2.0, 2.0)
        assert g.a == 0.0 and g.b == 1.0

    def test_conductor_limit(self):
        g = greens_coefficients(1.0)
        assert g.a == -1.0 and g.mirror_strength == 1.0

    def test_dielectric_example(self):
        g = greens_coefficients(1.0, 3.0)
        assert g.a == pytest.approx(-0.5)
        assert g.b == pytest.approx(1.5)

    def test_sum_rule(self, rng):
        for _ in range(50):
            e1, e2 = rng.uniform(0.1, 20.0, 2)
            g = greens_coefficients(e1, e2)
            assert g.a + g.b == pytest.approx(1.0, abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            greens_coefficients(0.0, 1.0)
        with pytest.raises(ValueError):
            greens_coefficients(1.0, -2.0)


def four_term_potential(x, r):
    """Term-by-term oracle: the four labeled image terms before symmetry."""
    x = np.asarray(x, dtype=float)
    xs = np.array([-x[0], x[1], x[2]])
    return (-1.0 / np.linalg.norm(x)
            + 0.5 * (-1.0 / (2.0 * r)
                     - 1.0 / np.linalg.norm(x + 2.0 * r * E1 - xs)
                     + 1.0 / np.linalg.norm(2.0 * r * E1 + x)
                     + 1.0 / np.linalg.norm(2.0 * r * E1 - xs)))


class TestHydrogenPlatePotential:
    def test_against_four_term_oracle(self, rng):
        assert hydrogen_plate_potential([1.0, 0.0, 0.0], 10.0) == pytest.approx(
            four_term_potential([1.0, 0.0, 0.0], 10.0), abs=1e-15)
        for _ in range(200):
            r = rng.uniform(0.5, 50.0)
            x = rng.standard_normal(3) * 2.0
            if np.linalg.norm(x) < 1e-3 or x[0] <= -r * 0.9:
                continue
            assert hydrogen_plate_potential(x, r) == pytest.approx(
                four_term_potential(x, r), rel=1e-14)

    def test_bracket_vanishes_at_origin(self):
        # -1/(2r) - 1/(2r) + 2/(2r) = 0 exactly
        r = 7.0
        assert hydrogen_image_bracket(np.zeros(3), r) == 0.0
        assert hydrogen_image_bracket(np.array([1e-12, 0.0, 0.0]), r) == pytest.approx(0.0, abs=1e-13)

    def test_mirror_symmetry_identity(self, rng):
        # |2r e1 - x*| = |2r e1 + x|
        for _ in range(100):
            x = rng.standard_normal(3) * 3.0
            r = rng.uniform(1.0, 20.0)
            xs = reflect(x, E1)
            assert np.linalg.norm(2 * r * E1 - xs) == pytest.approx(
                np.linalg.norm(2 * r * E1 + x), rel=1e-15)

    def test_image_part_nonpositive(self, rng):
        # strict negativity except at the nucleus (trapezoid inequality)
        r = 5.0
        for _ in range(500):
            x = rng.uniform(-0.9 * r, 3 * r), rng.standard_normal() * 5, rng.standard_normal() * 5
            val = hydrogen_image_bracket(np.array(x), r)
            assert val <= 0.0
            if np.linalg.norm(x) > 1e-6:
                assert val < 0.0

    def test_rejects_singularity_and_outside(self):
        with pytest.raises(ValueError):
            hydrogen_plate_potential([0.0, 0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            hydrogen_image_bracket([-2.0, 0.0, 0.0], 1.0)


class TestMoleculeMirrorInteraction:
    def test_hydrogen_reduces_to_bracket(self, rng):
        plate = PlateConfig(E1, r=10.0)
        mol = Molecule.hydrogen()
        for _ in range(50):
            x = rng.standard_normal(3)
            if x[0] <= -9.0:
                continue
            terms = molecule_mirror_interaction(mol, plate, [x])
            assert terms.total == pytest.approx(hydrogen_image_bracket(x, 10.0), rel=1e-13, abs=1e-15)

    def test_far_plate_vanishes(self):
        plate = PlateConfig(E1, r=1e6)
        mol = Molecule.hydrogen()
        terms = molecule_mirror_interaction(mol, plate, [np.array([0.3, -0.2, 0.1])])
        assert abs(terms.total) <= 1e-5

    def test_helium_against_appendix_enumeration(self, rng):
        # brute-force oracle: every charge/mirror pair with the interaction
        # energy factor conventions (cross pairs full weight, self pairs half)
        v = np.array([0.0, 1.0, 0.0])
        plate = PlateConfig(v, r=6.0, m=1.0)
        mol = Molecule.helium()
        for _ in range(20):
            electrons = rng.standard_normal((2, 3))
            if np.any(electrons @ v <= -5.0):
                continue
            terms = molecule_mirror_interaction(mol, plate, electrons)
            charges = np.array([-1.0, -1.0, 2.0])
            positions = np.vstack([electrons, np.zeros(3)])
            mirror = plate.mirror(positions)
            total = 0.0
            for i in range(3):
                for j in range(3):
                    g_d = -1.0 / np.linalg.norm(positions[i] - mirror[j])
                    weight = 0.5  # (1/2) sum over ordered pairs incl. diagonal
                    total += weight * charges[i] * charges[j] * g_d
            assert 0.5 * terms.total == pytest.approx(total, rel=1e-13)

    def test_linearity_in_m(self, rng):
        mol = Molecule.helium()
        electrons = np.array([[0.4, 0.1, -0.2], [-0.3, 0.5, 0.2]])
        full = molecule_mirror_interaction(mol, PlateConfig(E1, 8.0, 1.0), electrons)
        for m in (0.25, 0.5, 0.75):
            part = molecule_mirror_interaction(mol, PlateConfig(E1, 8.0, m), electrons)
            assert part.total == pytest.approx(m * full.total, rel=1e-15)
            assert part.electron_electron == pytest.approx(m * full.electron_electron, rel=1e-15)

    def test_side_condition_rejected(self):
        plate = PlateConfig(E1, r=2.0)
        with pytest.raises(ValueError):
            molecule_mirror_interaction(Molecule.hydrogen(), plate, [np.array([-2.5, 0.0, 0.0])])


class TestInteractionEnergy:
    def test_single_charge_self_image(self):
        # conductor: -1/(4d) at distance d from the interface
        plate = PlateConfig(E1, r=5.0)
        charges = ChargeSet(np.array([1.0]), np.array([[0.0, 0.0, 0.0]]), plate)
        e = interaction_energy(charges, greens_coefficients(1.0))
        assert e == pytest.approx(-1.0 / (4.0 * 5.0), rel=1e-15)

    def test_matched_media_direct_only(self, rng):
        plate = PlateConfig(E1, r=4.0)
        pos = rng.uniform(-1.0, 3.0, (4, 3))
        pos[:, 0] = np.abs(pos[:, 0])
        q = rng.standard_normal(4)
        charges = ChargeSet(q, pos, plate)
        e = interaction_energy(charges, greens_coefficients(2.0, 2.0))
        direct = sum(q[i] * q[j] / np.linalg.norm(pos[i] - pos[j])
                     for i in range(4) for j in range(i + 1, 4))
        assert e == pytest.approx(direct, rel=1e-13)

    def test_two_charges_five_term_sum(self, rng):
        plate = PlateConfig(E1, r=3.0)
        for _ in range(30):
            pos = rng.uniform(-2.0, 4.0, (2, 3))
            pos[:, 0] = np.abs(pos[:, 0])
            charges = ChargeSet(np.ones(2), pos, plate)
            e = interaction_energy(charges, greens_coefficients(1.0))
            mirror = plate.mirror(pos)
            hand = (1.0 / np.linalg.norm(pos[0] - pos[1])
                    - 0.5 / np.linalg.norm(pos[0] - mirror[1])
                    - 0.5 / np.linalg.norm(pos[1] - mirror[0])
                    - 0.5 / np.linalg.norm(pos[0] - mirror[0])
                    - 0.5 / np.linalg.norm(pos[1] - mirror[1]))
            assert e == pytest.approx(hand, rel=1e-13)

    def test_cross_mirror_weaker_than_direct(self, rng):
        plate = PlateConfig(E1, r=2.0)
        for _ in range(200):
            a, b = rng.uniform(-1.5, 5.0, (2, 3))
            a[0], b[0] = abs(a[0]), abs(b[0])
            d_direct = np.linalg.norm(a - b)
            d_mirror = np.linalg.norm(a - plate.mirror(b))
            if d_direct < 1e-9:
                continue
            assert d_mirror >= d_direct - 1e-12

    def test_rigid_motion_invariance(self, rng):
        # rotations about the plate normal and translations parallel to the
        # plate leave the energy unchanged
        plate = PlateConfig(E1, r=3.0)
        pos = rng.uniform(0.2, 2.5, (3, 3))
        q = np.array([1.0, -2.0, 0.5])
        coeffs = greens_coefficients(1.0, 4.0)
        base = interaction_energy(ChargeSet(q, pos, plate), coeffs)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            rot = np.array([[1.0, 0.0, 0.0],
                            [0.0, math.cos(theta), -math.sin(theta)],
                            [0.0, math.sin(theta), math.cos(theta)]])
            shift = np.array([0.0, *rng.standard_normal(2) * 5])
            moved = pos @ rot.T + shift
            e = interaction_energy(ChargeSet(q, moved, plate), coeffs)
            assert e == pytest.approx(base, abs=1e-12 * max(1.0, abs(base)))

    def test_coincident_rejected(self):
        plate = PlateConfig(E1, r=1.0)
        pos = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            interaction_energy(ChargeSet(np.ones(2), pos, plate), greens_coefficients(1.0))

    def test_outside_half_space_rejected(self):
        plate = PlateConfig(E1, r=1.0)
        with pytest.raises(ValueError):
            ChargeSet(np.ones(1), np.array([[-1.5, 0.0, 0.0]]), plate)


def test_classical_potential_matches_interaction_energy(rng):
    # the Hamiltonian's classical part equals the point-charge interaction
    # energy plus the intra-molecular direct terms
    v = random_unit_vectors(rng, 1)[0]
    plate = PlateConfig(v, r=7.0, m=1.0)
    mol = Molecule.helium()
    electrons = rng.standard_normal((2, 3)) * 0.8
    while np.any(electrons @ v <= -6.0):
        electrons = rng.standard_normal((2, 3)) * 0.8
    total = classical_potential(mol, plate, electrons)
    charges = ChargeSet(np.array([-1.0, -1.0, 2.0]),
                        np.vstack([electrons, np.zeros(3)]), plate)
    assert total == pytest.approx(interaction_energy(charges, greens_coefficients(1.0)),
                                  rel=1e-13)


def test_classical_potential_rejects_coincident_electrons():
    plate = PlateConfig(E1, r=5.0)
    electrons = np.array([[0.3, 0.2, -0.1], [0.3, 0.2, -0.1]])
    with pytest.raises(ValueError):
        classical_potential(Molecule.helium(), plate, electrons)
