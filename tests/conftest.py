import numpy as np
import pytest
from hypothesis import settings

from shiftcp.rng import RngStream
from shiftcp.scores import LinearLogitMap
from shiftcp.synthetic import ShiftSpec, SourceSpec, generate_source, train_classifier

# Deterministic hypothesis runs: the statistical slacks are calibrated for a
# reproducible suite, not for adversarial example search across CI runs.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def three_class_source() -> SourceSpec:
    root3 = np.sqrt(3.0)
    return SourceSpec(
        class_means=np.array([[2.0, 0.0], [-1.0, root3], [-1.0, -root3]]),
        class_cov_scale=0.6,
        priors=np.array([1 / 3, 1 / 3, 1 / 3]),
    )


@pytest.fixture(scope="session")
def inward_shift() -> ShiftSpec:
    root3 = np.sqrt(3.0)
    return ShiftSpec(
        per_class_translation=-0.3 * np.array([[2.0, 0.0], [-1.0, root3], [-1.0, -root3]]),
        noise_scale=0.12,
        clip_radius=0.15,
    )


@pytest.fixture(scope="session")
def trained_model(three_class_source) -> LinearLogitMap:
    x, y = generate_source(three_class_source, 1500, RngStream(11).substream("fit"))
    return train_classifier(x, y, 3)


@pytest.fixture()
def identity_map() -> LinearLogitMap:
    return LinearLogitMap(np.eye(2), np.zeros(2))
