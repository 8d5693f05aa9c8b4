import numpy as np
import pytest

import epicert as ec
from epicert.catalog import load

# entries whose every declared boundary point is expected to certify
CERTIFIABLE_IDS = (
    "halfspace",
    "unit_ball_euclid",
    "box_sup",
    "max_two_planes",
    "union_balls",
)


@pytest.fixture(scope="session")
def cfg42():
    return ec.NumericConfig(rng_seed=42)


@pytest.fixture(scope="session")
def catalog_certs(cfg42):
    """(id, point_index) -> (entry, certificate) for all certifiable points."""
    out = {}
    for cid in CERTIFIABLE_IDS:
        entry = load(cid)
        for i, pt in enumerate(entry.certifiable_at):
            res = ec.certify(entry.instance, pt, cfg42)
            assert isinstance(res, ec.EpigraphCertificate), (
                f"{cid} point {i}: {getattr(res, 'stage', '')} {getattr(res, 'message', '')}"
            )
            out[(cid, i)] = (entry, res)
    return out


@pytest.fixture()
def halfspace_cert(catalog_certs):
    return catalog_certs[("halfspace", 0)]


def finite_difference_gradients(eval_fn, points, step):
    """Central-difference gradients for a batch of points, (n, d) -> (n, d):
    the reference for reverse-mode and signed-distance gradients.

    One eval call of size 2*n*d; fine for the modest batches it is used on.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    eye = np.eye(d) * step
    plus = points[:, None, :] + eye[None, :, :]
    minus = points[:, None, :] - eye[None, :, :]
    stacked = np.concatenate([plus.reshape(n * d, d), minus.reshape(n * d, d)])
    vals = np.asarray(eval_fn(stacked), dtype=float)
    fp = vals[: n * d].reshape(n, d)
    fm = vals[n * d :].reshape(n, d)
    return (fp - fm) / (2.0 * step)


def assert_allclose(a, b, atol=0.0, rtol=1e-12):
    np.testing.assert_allclose(a, b, atol=atol, rtol=rtol)
